"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from procex import corpus, eval as scoring, parser, prompt  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from scale import build_scale_document  # noqa: E402


def _pet():
    return corpus.load_pet(ROOT / "data" / "pet.jsonl")


def _counts(doc) -> tuple:
    sentences = len({t.sentence_index for t in doc.tokens})
    return (len(doc.tokens), sentences, len(doc.mentions), len(doc.entities),
            len(doc.relations))


def test_scale_document_is_valid_and_k_times_as_large():
    pet = _pet()
    one = build_scale_document(pet.documents, 1)
    four = build_scale_document(pet.documents, 4)
    assert corpus.validate(four, pet.schema) == []
    assert _counts(four) == tuple(4 * n for n in _counts(one))
    assert _counts(one) == tuple(sum(_counts(d)[i] for d in pet.documents)
                                 for i in range(5))


def test_scale_document_gold_md_and_er_round_trip():
    pet = _pet()
    doc = build_scale_document(pet.documents[:8], 3)
    for task in ("MD", "ER"):
        report = parser.parse("\n".join(prompt.render_gold(doc, task)), task, pet.schema)
        assert report.error_count == 0
        if task == "MD":
            grounded, ungrounded = parser.ground_report(report, doc)
            scores = scoring.score_md(grounded + ungrounded, list(doc.mentions))
        else:
            clusters, _ = parser.ground_clusters(report, doc)
            scores = scoring.score_er(clusters, list(doc.entities), doc)
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0), task


class _OffByOne(workloads.CorpusGrid):
    """Expects one more correct item in one PET MD document than the truth."""

    def setup(self, where):
        super().setup(where)
        per_doc = self.expected[("pet", "MD")]
        doc_id = sorted(per_doc)[0]
        e = per_doc[doc_id]
        per_doc[doc_id] = dataclasses.replace(e, correct=e.correct + 1)


def test_wrong_expected_count_is_a_failed_operation(tmp_path):
    honest = workloads.CorpusGrid(ROOT, 7)
    honest.setup(tmp_path / "honest")
    m = run.measure(honest, 0.0, tmp_path / "passes", tmp_path / "runs")
    assert (m.failed, m.unexpected) == (0, [])

    wrong = _OffByOne(ROOT, 7)
    wrong.setup(tmp_path / "wrong")
    m = run.measure(wrong, 0.0, tmp_path / "passes", tmp_path / "runs")
    pet_md_cells = len(wrong.SHOTS)
    assert m.attempted == run.MIN_PASSES * len(wrong.cells)
    assert m.failed == run.MIN_PASSES * pet_md_cells
    assert all("scores.json" in message for message in m.unexpected)
