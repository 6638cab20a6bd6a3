"""Experiment orchestration.

Runs the extraction loop over whole datasets: render a prompt per
document, complete it through the caching client and parse the
response, then ground and score each report against gold.  The grid
runner sweeps shot counts and the ablation runner sweeps prompt
variants.

Every dataset-level run leaves a directory under the output root
named by its manifest id, holding the manifest, all prompts and raw
responses, parsed predictions, scores, and a plain-text table.
Replay-mode runs are byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import __version__, sha256_hex
from .corpus import Dataset, Document, LoadError, ValidationError, check, json_lines
from .eval import (
    MatchPolicy,
    TaskScores,
    aggregate,
    score_constraints,
    score_er,
    score_md,
    score_re,
)
from .llm import CachingClient, ChatRequest, ChatResponse, ProviderError, ReplayMissError
from .parser import (
    ParsedConstraint,
    ParseReport,
    ground_clusters,
    ground_relations,
    ground_report,
    item_from_record,
    item_to_record,
    parse,
)
from .prompt import PromptConfig, PromptError, RenderedPrompt, ablation_variants, assemble

DEFAULT_MODEL_ID = "stub"
DEFAULT_SHOT_COUNTS = (0, 1, 3)
REPLAY_TIMESTAMP = "1970-01-01T00:00:00Z"

# the failures that bad input or a failing provider can cause, each raised
# where it happens; any other exception is a bug and propagates
DATA_ERRORS = (LoadError, ValidationError, PromptError, OSError)
PROVIDER_ERRORS = (ProviderError, ReplayMissError)

_BASELINES_PATH = Path(__file__).resolve().parent / "data" / "baselines.json"


@functools.cache
def reference_scores() -> MappingProxyType:
    """Published comparison numbers, used only when printing tables.

    Read once per process; every caller shares the same read-only mapping.
    """
    raw = json.loads(_BASELINES_PATH.read_text(encoding="utf-8"))
    return MappingProxyType(raw["reference_scores"])


def utc_timestamp(cache_mode: str) -> str:
    if cache_mode == "replay":
        # a wall clock would break byte-identical reruns
        return REPLAY_TIMESTAMP
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def per_document_seed(base_seed: int, doc_id: str) -> int:
    # the first 8 bytes of the digest, read big-endian
    return int(sha256_hex(f"{base_seed}:{doc_id}")[:16], 16)


# ---------------------------------------------------------------------------
# manifests

@dataclass(frozen=True)
class RunManifest:
    dataset_name: str
    task: str
    model_id: str
    shot_count: int
    shot_seed: int
    prompt_fingerprints: dict
    cache_mode: str
    timestamp: str
    toolkit_version: str = __version__

    def to_record(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def manifest_id(self) -> str:
        # provenance-only fields stay out so a replay rerun lands in
        # the directory its recording created
        record = self.to_record()
        del record["timestamp"]
        del record["cache_mode"]
        return sha256_hex(json.dumps(record, sort_keys=True))[:12]


# ---------------------------------------------------------------------------
# single-document extraction

def score_document(task: str, report: ParseReport, doc: Document,
                   policy: MatchPolicy):
    """Ground a document's parse report for task and score it against gold.

    Returns the task-shaped predictions and their TaskScores.
    """
    if task == "MD":
        grounded, ungrounded = ground_report(report, doc)
        predictions = grounded + ungrounded
        scores = score_md(predictions, list(doc.mentions), policy, doc)
    elif task == "ER":
        predictions, _ = ground_clusters(report, doc)
        scores = score_er(predictions, list(doc.entities), doc)
    elif task == "RE":
        predictions = ground_relations(report, doc)
        scores = score_re(predictions, list(doc.relations), doc, policy)
    elif task == "CE":
        predictions = [i for i in report.items if isinstance(i, ParsedConstraint)]
        scores = score_constraints(predictions, list(doc.constraints), policy)
    else:
        raise ValueError(f"unknown task {task!r}")
    return predictions, scores


PREDICTIONS_SHAPE = {"document_id": str, "items": [dict]}


def predictions_record(doc_id: str, task: str, report: ParseReport,
                       **extra) -> str:
    """A predictions.jsonl line: the parsed items and parse counts of one
    document, plus the extra fields given."""
    return json.dumps({
        "document_id": doc_id,
        "task": task,
        "items": [item_to_record(i) for i in report.items],
        "parsing_errors": report.error_count,
        "ignored_lines": report.ignored_line_count,
        **extra,
    }, sort_keys=True)


def read_predictions(path):
    """Yield ("<path>:<line>", record, parsed items) per predictions record.

    A line that does not fit PREDICTIONS_SHAPE, or an item that does
    not fit its kind's shape, raises LoadError naming the line.
    """
    for line_no, record in json_lines(path, f"{path}:"):
        where = f"{path}:{line_no}"
        check(record, PREDICTIONS_SHAPE, f"{where}: record")
        yield where, record, tuple(
            item_from_record(item, f"{where}: item") for item in record["items"]
        )


def _document_config(config: PromptConfig, doc_id: str) -> PromptConfig:
    """Few-shot examples are drawn per document from the run seed and its id."""
    if config.shot_count == 0:
        return config
    return config.replace(shot_seed=per_document_seed(config.shot_seed, doc_id))


def extract_document(doc: Document, config: PromptConfig, client: CachingClient,
                     shot_pool=(), *, model_id: str = DEFAULT_MODEL_ID):
    """Prompt, complete and parse one document.

    Returns the rendered prompt, the response and the parse report.
    """
    rendered = assemble(_document_config(config, doc.id), doc, shot_pool)
    response = client.complete(ChatRequest(model_id, rendered.text))
    return rendered, response, parse(response.text, config.task, config.schema)


# ---------------------------------------------------------------------------
# dataset-level runs

@dataclass(frozen=True)
class CellResult:
    dataset_name: str
    task: str
    shot_count: int
    scores: TaskScores | None
    parsing_errors: int
    manifest_id: str | None
    failure: str | None = None
    # the exception behind ``failure``, kept so callers can classify it
    error: Exception | None = dataclasses.field(default=None, compare=False,
                                                repr=False)


@dataclass(frozen=True)
class GridResult:
    cells: tuple
    table_text: str


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


class DocumentRun(NamedTuple):
    """One document of a run; every output of the run is a projection
    of its list of these."""
    doc: Document
    prompt: RenderedPrompt
    response: ChatResponse
    report: ParseReport
    scores: TaskScores


def run_cell(dataset: Dataset, config: PromptConfig, client: CachingClient,
             *, out_root=None, model_id: str = DEFAULT_MODEL_ID) -> CellResult:
    """One (dataset, config.task, shot count) run, persisted under its manifest.

    The config must be built from the dataset's schema; one built from
    another schema raises ValueError.
    """
    if config.schema != dataset.schema:
        raise ValueError(
            f"config schema {config.schema.dataset_name!r} is not the "
            f"schema of dataset {dataset.schema.dataset_name!r}"
        )
    task = config.task
    docs = dataset.documents

    def extract(doc):
        return extract_document(doc, config, client, docs, model_id=model_id)

    if client.mode == "replay":
        # replay calls no provider, so a pool would only contend for the
        # interpreter lock
        extracted = list(map(extract, docs))
    else:
        # the pool size is the one bound on provider calls in flight
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=client.max_concurrency
        ) as pool:
            extracted = list(pool.map(extract, docs))
    # scored on this thread once extraction is done: on pool threads the
    # scoring contends for the interpreter lock and costs more CPU
    policy = MatchPolicy.from_schema(dataset.schema)
    runs = [DocumentRun(doc, prompt, response, report,
                        score_document(task, report, doc, policy)[1])
            for doc, (prompt, response, report) in zip(docs, extracted)]
    total = aggregate([r.scores.counts for r in runs])
    parsing_errors = sum(r.report.error_count for r in runs)

    manifest = RunManifest(
        dataset_name=dataset.schema.dataset_name,
        task=task,
        model_id=model_id,
        shot_count=config.shot_count,
        shot_seed=config.shot_seed,
        prompt_fingerprints={r.doc.id: r.prompt.config_fingerprint for r in runs},
        cache_mode=client.mode,
        timestamp=utc_timestamp(client.mode),
    )

    cell = CellResult(
        dataset_name=dataset.schema.dataset_name,
        task=task,
        shot_count=config.shot_count,
        scores=total,
        parsing_errors=parsing_errors,
        manifest_id=manifest.manifest_id,
    )

    if out_root is not None:
        run_dir = Path(out_root) / manifest.manifest_id
        (run_dir / "prompts").mkdir(parents=True, exist_ok=True)
        (run_dir / "responses").mkdir(parents=True, exist_ok=True)
        _write_json(run_dir / "manifest.json", manifest.to_record())
        for r in runs:
            (run_dir / "prompts" / f"{r.doc.id}.txt").write_text(
                r.prompt.text, encoding="utf-8"
            )
            (run_dir / "responses" / f"{r.doc.id}.txt").write_text(
                r.response.text, encoding="utf-8"
            )
        (run_dir / "predictions.jsonl").write_text("".join(
            predictions_record(r.doc.id, task, r.report, f1=round(r.scores.f1, 6)) + "\n"
            for r in runs
        ), encoding="utf-8")
        _write_json(run_dir / "scores.json", {
            "dataset_name": cell.dataset_name,
            "task": task,
            "shot_count": config.shot_count,
            "precision": round(total.precision, 6),
            "recall": round(total.recall, 6),
            "f1": round(total.f1, 6),
            "correct": total.counts.correct,
            "predicted": total.counts.predicted,
            "gold": total.counts.gold,
            "parsing_errors": parsing_errors,
            "document_count": len(runs),
        })
        (run_dir / "table.txt").write_text(
            render_grid_table([cell]), encoding="utf-8"
        )
    return cell


def _cell_or_failure(dataset: Dataset, config: PromptConfig,
                     client: CachingClient, **kwargs) -> CellResult:
    """run_cell, with a data or provider error turned into a failed cell."""
    try:
        return run_cell(dataset, config, client, **kwargs)
    except DATA_ERRORS + PROVIDER_ERRORS as exc:
        return CellResult(dataset.schema.dataset_name, config.task, config.shot_count,
                          scores=None, parsing_errors=0, manifest_id=None,
                          failure=f"{type(exc).__name__}: {exc}", error=exc)


def run_grid(dataset: Dataset, tasks=None, shot_counts=DEFAULT_SHOT_COUNTS, *,
             client: CachingClient, out_root=None,
             model_id: str = DEFAULT_MODEL_ID, shot_seed: int = 0) -> GridResult:
    """Sweep (task, shot count) cells and render the score table."""
    if tasks is None:
        tasks = dataset.schema.tasks
    cells: list = []
    for task in tasks:
        for n in shot_counts:
            config = PromptConfig(task=task, schema=dataset.schema,
                                  shot_count=n, shot_seed=shot_seed)
            cells.append(_cell_or_failure(dataset, config, client,
                                          out_root=out_root, model_id=model_id))
    table = render_grid_table(cells)
    if out_root is not None:
        Path(out_root).mkdir(parents=True, exist_ok=True)
        (Path(out_root) / "table.txt").write_text(table, encoding="utf-8")
    return GridResult(cells=tuple(cells), table_text=table)


def _shot_label(n: int) -> str:
    return "zero-shot" if n == 0 else f"{n}-shot"


def render_grid_table(cells) -> str:
    """Plain-text score table, one block per dataset and task."""
    refs = reference_scores()
    out: list = []
    for dataset_name, task in dict.fromkeys((c.dataset_name, c.task) for c in cells):
        out.append(f"dataset: {dataset_name}  task: {task}")
        out.append(f"  {'configuration':<22}{'P':>7}{'R':>7}{'F1':>7}")
        baseline = refs.get(dataset_name, {}).get(task, {}).get("baseline")
        if baseline is not None:
            p, r, f1 = baseline
            out.append(
                f"  {'baseline (reported)':<22}{p:>7.3f}{r:>7.3f}{f1:>7.3f}"
            )
        for cell in cells:
            if (cell.dataset_name, cell.task) != (dataset_name, task):
                continue
            label = _shot_label(cell.shot_count)
            if cell.failure is not None:
                out.append(f"  {label:<22}{'-':>7}{'-':>7}{'-':>7}  [{cell.failure}]")
                continue
            s = cell.scores
            out.append(
                f"  {label:<22}{s.precision:>7.3f}{s.recall:>7.3f}{s.f1:>7.3f}"
                f"  (errors: {cell.parsing_errors})"
            )
        out.append("")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# ablation

@dataclass(frozen=True)
class AblationRow:
    task: str
    label: str
    absolute_f1: float | None
    relative_f1: float | None
    parsing_errors: int
    failure: str | None = None
    # the exception behind ``failure``, kept so callers can classify it
    error: Exception | None = dataclasses.field(default=None, compare=False,
                                                repr=False)


def run_ablation(dataset: Dataset, tasks, *, client: CachingClient,
                 out_root=None, model_id: str = DEFAULT_MODEL_ID) -> tuple:
    """Remove one prompt component at a time from the zero-shot prompt
    and measure the damage; returns one AblationRow per task and variant."""
    rows: list = []
    for task in tasks:
        base = PromptConfig(task=task, schema=dataset.schema)
        baseline_f1: float | None = None
        for label, variant in ablation_variants(base):
            cell = _cell_or_failure(dataset, variant, client, model_id=model_id)
            f1 = None if cell.scores is None else cell.scores.f1
            if label == "Baseline":
                baseline_f1 = f1
            relative = (None if f1 is None or baseline_f1 is None
                        else f1 - baseline_f1)
            rows.append(AblationRow(task, label, f1, relative,
                                    cell.parsing_errors, failure=cell.failure,
                                    error=cell.error))
    rows = tuple(rows)
    if out_root is not None:
        payload = {
            "rows": [
                {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
                 if f.name != "error"}
                for r in rows
            ],
        }
        root = Path(out_root)
        root.mkdir(parents=True, exist_ok=True)
        _write_json(root / "ablation.json", payload)
        (root / "table.txt").write_text(
            render_ablation_table(rows), encoding="utf-8"
        )
    return rows


def render_ablation_table(rows) -> str:
    """Plain-text ablation table, one block per task in row order."""
    out: list = []
    for task in dict.fromkeys(row.task for row in rows):
        out.append(f"task: {task}")
        out.append(
            f"  {'variant':<22}{'rel F1':>9}{'abs F1':>9}{'parse errors':>15}"
        )
        for row in rows:
            if row.task != task:
                continue
            if row.failure is not None:
                out.append(f"  {row.label:<22}{'-':>9}{'-':>9}  [{row.failure}]")
                continue
            # relative F1 is missing when the Baseline row failed
            relative = ("-" if row.relative_f1 is None
                        else f"{row.relative_f1:+.3f}")
            out.append(
                f"  {row.label:<22}{relative:>9}"
                f"{row.absolute_f1:>9.3f}{row.parsing_errors:>15}"
            )
        out.append("")
    return "\n".join(out) + ("\n" if out else "")
