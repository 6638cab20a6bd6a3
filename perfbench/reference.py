"""Per-layer reference figures on PET concatenated k times.

    python3 perfbench/reference.py

For k = 1, 2 and 4 it parses, grounds and scores the gold MD, ER and RE
answers of the k-times document and compiles its gold annotations to
BPMN; for k = 16 it compiles BPMN only, since grounding grows roughly
with the square of the size. Every call runs traced, once, and the
table gives each layer's thread CPU milliseconds and call counts. Takes
about two minutes on a 2-CPU machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from procex import bpmn, corpus, eval as scoring, parser, prompt  # noqa: E402

import tracing  # noqa: E402
from scale import build_scale_document  # noqa: E402

EXTRACTION_SIZES = (1, 2, 4)
BPMN_SIZES = (1, 2, 4, 16)

ROWS = (
    "parser.ground_report", "parser.ground_clusters", "parser.ground_relations",
    "eval.score_md", "eval.score_er", "eval.score_re",
    "bpmn.consolidate", "bpmn.build_vertices", "bpmn.link", "bpmn.validate_graph",
    "bpmn.layout", "bpmn.serialize_bpmn", "bpmn.parse_bpmn",
)
COUNTED = ("corpus.normalize_type_name.calls", "bpmn.nearest_left_actor")


def extract(doc, schema) -> None:
    for task in ("MD", "ER", "RE"):
        report = parser.parse("\n".join(prompt.render_gold(doc, task)), task, schema)
        if task == "MD":
            grounded, ungrounded = parser.ground_report(report, doc)
            scoring.score_md(grounded + ungrounded, list(doc.mentions))
        elif task == "ER":
            clusters, _ = parser.ground_clusters(report, doc)
            scoring.score_er(clusters, list(doc.entities), doc)
        else:
            scoring.score_re(parser.ground_relations(report, doc), list(doc.relations), doc)


def compile_bpmn(doc, schema) -> None:
    graph = bpmn.compile_document(doc, schema)
    bpmn.validate_graph(graph)
    bpmn.parse_bpmn(bpmn.serialize_bpmn(bpmn.layout(graph)))


def main() -> int:
    pet = corpus.load_pet(ROOT / "data" / "pet.jsonl")
    tracer = tracing.Tracer().install()
    columns = {}
    try:
        for k in sorted(set(EXTRACTION_SIZES) | set(BPMN_SIZES)):
            doc = build_scale_document(pet.documents, k)
            tracer.drain()
            if k in EXTRACTION_SIZES:
                extract(doc, pet.schema)
            if k in BPMN_SIZES:
                compile_bpmn(doc, pet.schema)
            spans, counts = tracer.drain()
            calls, cpu = tracing.summarize(spans)
            columns[k] = {name: cpu[name] * 1000 for name in ROWS if calls[name]}
            columns[k]["corpus.normalize_type_name.calls"] = \
                counts["corpus.normalize_type_name.calls"]
            columns[k]["bpmn.nearest_left_actor"] = calls["bpmn.nearest_left_actor"]
            columns[k]["tokens"] = len(doc.tokens)
            columns[k]["mentions"] = len(doc.mentions)
    finally:
        tracer.uninstall()
    sizes = sorted(columns)
    print(f"{'PET concatenated k times':<34}" + "".join(f"{f'{k}x':>12}" for k in sizes))
    for name in ("tokens", "mentions") + ROWS + COUNTED:
        unit = "" if name in ("tokens", "mentions") or name in COUNTED else " ms"
        label = name + (" calls" if name == "bpmn.nearest_left_actor" else "") + unit
        cells = []
        for k in sizes:
            value = columns[k].get(name)
            cells.append(f"{'-':>12}" if value is None else
                         f"{value:>12.1f}" if unit else f"{value:>12d}")
        print(f"{label:<34}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
