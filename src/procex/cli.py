"""Command line front end.

Exit codes: 0 success, 1 usage, 2 data or validation problem, 3
provider problem.  Every failure writes one line to stderr shaped
"error: <category>: <message>".

Settings follow flag > environment > config file.  Environment names
are the upper-cased flag with a PROCEX_ prefix (PROCEX_MODEL,
PROCEX_MODE, PROCEX_CACHE, PROCEX_OUT); a --config JSON file may
hold the same keys in lower case.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .corpus import (
    Dataset,
    LoadError,
    Mention,
    Entity,
    Relation,
    ValidationError,
    check,
    decode_json,
    json_lines,
    load_canonical,
    load_pet,
    load_schema,
)
from .llm import CachingClient, HttpProvider, ProviderError, ReplayMissError
from .parser import (
    ParseReport,
    ground_clusters,
    ground_relations,
    ground_report,
    item_from_record,
    item_to_record,
)
from .pipeline import (
    DEFAULT_MODEL_ID,
    _predictions_for,
    extract_document,
    render_ablation_table,
    render_grid_table,
    run_ablation,
    run_cell,
    run_grid,
    score_dataset,
)
from .prompt import PromptConfig, PromptError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

ENV_PREFIX = "PROCEX_"

_COMMON_FLAGS_HELP = (
    "common flags: --dataset PATH, --schema NAME_OR_PATH, --task TASK, "
    "--shots N, --seed N, --model ID, --mode record|replay, --cache DIR, "
    "--out DIR, --config FILE"
)


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _one_line(text: str) -> str:
    return " ".join(str(text).split())


def _fail(category: str, message: str) -> None:
    sys.stderr.write(f"error: {category}: {_one_line(message)}\n")


_DATA_ERRORS = (LoadError, ValidationError, PromptError, KeyError, ValueError,
                OSError)


def _data_message(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return f"{exc.filename}: no such file"
    if isinstance(exc, KeyError):
        return f"unknown id {exc.args[0]!r}" if exc.args else str(exc)
    return str(exc)


def _fail_rows(what: str, failed) -> int:
    """Report failed grid cells or ablation rows under the first one's category."""
    first = failed[0]
    message = f"{len(failed)} {what} failed; first: {first.failure}"
    if isinstance(first.error, _DATA_ERRORS):
        _fail("data", message)
        return EXIT_DATA
    _fail("provider", message)
    return EXIT_PROVIDER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="procex",
        description=(
            "Extract process mentions, entities, relations, and "
            "constraints from text with configurable prompts, score them, "
            "and compile extractions to BPMN."
        ),
        epilog=_COMMON_FLAGS_HELP,
    )
    parser.add_argument("--version", action="version",
                        version=f"procex {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    def add_config(p):
        p.add_argument("--config", help="JSON file with default settings")

    def add_dataset(p):
        p.add_argument("--dataset", required=True, help="dataset file")
        p.add_argument("--schema",
                       help="schema name or file (defaults to the dataset's)")

    def add_llm(p):
        p.add_argument("--model", help="model id sent to the provider")
        p.add_argument("--mode", choices=["record", "replay"],
                       help="record against a live endpoint or replay a cache")
        p.add_argument("--cache", help="response cache directory")
        p.add_argument("--seed", type=int, default=0, help="shot sampling seed")
        p.add_argument("--fixed-shots", action="store_true",
                       help="one shot sample for the whole run instead of "
                            "per-document sampling")

    p = sub.add_parser("extract",
                       help="run extraction over one document or a dataset")
    add_dataset(p)
    add_llm(p)
    add_config(p)
    p.add_argument("--task", required=True, help="MD, ER, RE, or CE")
    p.add_argument("--doc", help="single document id (default: whole dataset)")
    p.add_argument("--shots", type=int, default=0, help="few-shot example count")
    p.add_argument("--out", help="output root for dataset runs")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate",
                       help="score a predictions file against gold")
    add_dataset(p)
    add_config(p)
    p.add_argument("--task", required=True)
    p.add_argument("--predictions", required=True,
                   help="predictions.jsonl from an extraction run")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid",
                       help="score table over tasks and shot counts")
    add_dataset(p)
    add_llm(p)
    add_config(p)
    p.add_argument("--tasks", help="comma list (default: the schema's tasks)")
    p.add_argument("--shots", default="0,1,3", help="comma list of shot counts")
    p.add_argument("--out", help="output root for run directories")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate",
                       help="remove prompt components one at a time")
    add_dataset(p)
    add_llm(p)
    add_config(p)
    p.add_argument("--tasks", default="MD,RE", help="comma list of tasks")
    p.add_argument("--out", help="directory for the ablation report")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("generate-bpmn",
                       help="compile a document's annotations to BPMN 2.0 XML")
    add_config(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="document file (canonical format)")
    p.add_argument("--doc", help="document id when the file holds several")
    p.add_argument("--out", required=True, help="target .bpmn file")
    p.add_argument("--predictions", action="append", default=[],
                   help="compile from these predictions instead of gold "
                        "(repeatable; mention and relation records merge)")
    p.set_defaults(func=cmd_generate_bpmn)

    p = sub.add_parser("cache",
                       help="list or purge the response cache")
    add_config(p)
    p.add_argument("action", choices=["list", "purge"])
    p.add_argument("--cache", help="response cache directory")
    p.add_argument("--older-than", type=float, default=None, metavar="SECONDS",
                   help="purge only entries older than this many seconds")
    p.set_defaults(func=cmd_cache)

    return parser


# ---------------------------------------------------------------------------
# settings resolution

def _resolve(args, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    env = os.environ.get(ENV_PREFIX + name.upper())
    if env:
        return env
    file_config = getattr(args, "file_config", {})
    if name in file_config:
        return file_config[name]
    return default


CONFIG_SHAPE = {"model?": str, "mode?": str, "cache?": str, "out?": str}


def _make_client(args) -> CachingClient:
    mode = _resolve(args, "mode", "record")
    cache_dir = Path(_resolve(args, "cache", ".procex-cache"))
    # no provider unless recording; CachingClient rejects a misspelled mode
    provider = HttpProvider.from_env() if mode == "record" else None
    return CachingClient(cache_dir, provider, mode=mode)


def _sniff_dataset(path, schema_source=None) -> Dataset:
    """Tell the two dataset layouts apart by their first line."""
    path = Path(path)
    schema = load_schema(schema_source) if schema_source else None
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    head = decode_json(first, "line 1") if first.strip() else {}
    if isinstance(head, dict) and "format_version" in head:
        return load_canonical(path, schema)
    return load_pet(path, schema)


def _load_dataset(args) -> Dataset:
    return _sniff_dataset(args.dataset, args.schema)


def _check_task(dataset: Dataset, task: str) -> str:
    if task not in dataset.schema.tasks:
        raise ValidationError(
            f"task {task!r} is not defined for dataset "
            f"{dataset.schema.dataset_name!r} (has: {', '.join(dataset.schema.tasks)})"
        )
    return task


# ---------------------------------------------------------------------------
# subcommands

def cmd_extract(args) -> int:
    dataset = _load_dataset(args)
    task = _check_task(dataset, args.task)
    model_id = _resolve(args, "model", DEFAULT_MODEL_ID)
    config = PromptConfig(
        task=task, schema=dataset.schema,
        shot_count=args.shots, shot_seed=args.seed,
    )
    client = _make_client(args)
    if args.doc is not None:
        doc = dataset.document(args.doc)
        report, predictions, rendered = extract_document(
            doc, config, client, shot_pool=dataset.documents,
            model_id=model_id, fixed_shots=args.fixed_shots,
        )
        print(json.dumps(
            {
                "document_id": doc.id,
                "task": task,
                "items": [item_to_record(i) for i in report.items],
                "parsing_errors": report.error_count,
                "ignored_lines": report.ignored_line_count,
                "prediction_count": len(predictions),
            },
            sort_keys=True,
        ))
        return EXIT_OK
    out_root = Path(_resolve(args, "out", "runs"))
    cell = run_cell(
        dataset, task, config, client, out_root=out_root,
        model_id=model_id, fixed_shots=args.fixed_shots,
    )
    sys.stdout.write(f"run: {out_root / cell.manifest_id}\n")
    sys.stdout.write(render_grid_table([cell]))
    return EXIT_OK


PREDICTIONS_SHAPE = {"document_id": str, "items": [dict]}


def _read_predictions(path):
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


def cmd_evaluate(args) -> int:
    dataset = _load_dataset(args)
    task = _check_task(dataset, args.task)
    predictions: dict = {}
    for where, record, items in _read_predictions(args.predictions):
        if record.get("task") != task:
            raise ValidationError(
                f"{where}: record for task {record.get('task')!r}, "
                f"expected {task!r}"
            )
        doc = dataset.document(record["document_id"])
        if doc.id in predictions:
            raise ValidationError(
                f"{where}: second record for document {doc.id!r}"
            )
        predictions[doc.id] = _predictions_for(
            task, ParseReport(items, error_lines=(), ignored_line_count=0), doc,
        )
    # documents missing from the file count as predicting nothing
    total, per_doc = score_dataset(dataset, task, predictions)
    print(
        f"{task}: P={total.precision:.2f} R={total.recall:.2f} "
        f"F1={total.f1:.2f} (documents: {len(per_doc)})"
    )
    return EXIT_OK


def _csv(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_grid(args) -> int:
    dataset = _load_dataset(args)
    tasks = _csv(args.tasks) if args.tasks else list(dataset.schema.tasks)
    for task in tasks:
        _check_task(dataset, task)
    shot_counts = tuple(int(n) for n in _csv(args.shots))
    client = _make_client(args)
    result = run_grid(
        dataset, tasks=tasks, shot_counts=shot_counts, client=client,
        out_root=Path(_resolve(args, "out", "runs")),
        model_id=_resolve(args, "model", DEFAULT_MODEL_ID),
        shot_seed=args.seed, fixed_shots=args.fixed_shots,
    )
    sys.stdout.write(result.table_text)
    if result.failures:
        return _fail_rows("cell(s)", result.failures)
    return EXIT_OK


def cmd_ablate(args) -> int:
    dataset = _load_dataset(args)
    tasks = _csv(args.tasks)
    for task in tasks:
        _check_task(dataset, task)
    client = _make_client(args)
    base = PromptConfig(task=tasks[0], schema=dataset.schema,
                        shot_seed=args.seed)
    out = _resolve(args, "out")
    report = run_ablation(
        dataset, tasks=tuple(tasks), base=base, client=client,
        out_root=None if out is None else Path(out),
        model_id=_resolve(args, "model", DEFAULT_MODEL_ID),
        fixed_shots=args.fixed_shots,
    )
    sys.stdout.write(render_ablation_table(report))
    failed = [r for r in report.rows if r.failure is not None]
    if failed:
        return _fail_rows("variant(s)", failed)
    return EXIT_OK


def _doc_from_predictions(doc, schema, paths):
    """Swap a document's annotations for predicted ones."""
    items = []
    for path in paths:
        for _, record, parsed in _read_predictions(path):
            if record["document_id"] == doc.id:
                items.extend(parsed)
    report = ParseReport(items=tuple(items), error_lines=(), ignored_line_count=0)

    grounded, ungrounded = ground_report(report, doc)
    for item in ungrounded:
        sys.stderr.write(
            f"warning: mention {item.surface!r} not groundable, dropped\n"
        )
    mentions: list = []
    for hit in grounded:
        canonical = schema.canonical_mention_type(hit.mention_type)
        mentions.append(Mention(
            f"p{len(mentions)}",
            canonical if canonical else hit.mention_type,
            hit.token_indices,
        ))
    span_to_id = {m.token_indices: m.id for m in mentions}

    entities: list = []
    clusters, _ = ground_clusters(report, doc)
    for members in clusters:
        ids = [span_to_id.get(m.token_indices) for m in members]
        if len(ids) > 1 and all(i is not None for i in ids):
            entities.append(Entity(f"pe{len(entities)}", frozenset(ids)))

    relations: list = []
    for grounded in ground_relations(report, doc):
        src = span_to_id.get(grounded.source_indices)
        tgt = span_to_id.get(grounded.target_indices)
        if src is None or tgt is None:
            sys.stderr.write(
                f"warning: relation {grounded.relation_type!r} endpoint "
                "missing from predicted mentions, dropped\n"
            )
            continue
        canonical = schema.canonical_relation_type(grounded.relation_type)
        relations.append(Relation(
            f"pr{len(relations)}",
            canonical if canonical else grounded.relation_type,
            src, tgt,
        ))

    return dataclasses.replace(
        doc, mentions=tuple(mentions), entities=tuple(entities),
        relations=tuple(relations), constraints=(),
    )


def cmd_generate_bpmn(args) -> int:
    # only this command needs the BPMN compiler
    from .bpmn import compile_document, layout, serialize_bpmn, validate_graph

    dataset = _sniff_dataset(args.infile)
    if args.doc is not None:
        doc = dataset.document(args.doc)
    elif len(dataset.documents) == 1:
        doc = dataset.documents[0]
    else:
        raise ValidationError(
            f"{args.infile} holds {len(dataset.documents)} documents; "
            "pick one with --doc"
        )
    schema = dataset.schema
    if args.predictions:
        doc = _doc_from_predictions(doc, schema, args.predictions)
    graph = compile_document(doc, schema)
    for warning in graph.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    problems = validate_graph(graph)
    if problems:
        raise ValidationError("; ".join(problems))
    xml = serialize_bpmn(layout(graph))
    out_path = Path(args.out)
    out_path.write_text(xml, encoding="utf-8")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_cache(args) -> int:
    cache_dir = Path(_resolve(args, "cache", ".procex-cache"))
    if args.action == "list":
        if not cache_dir.is_dir():
            print(f"cache {cache_dir} is empty")
            return EXIT_OK
        entries = sorted(cache_dir.glob("*.json"))
        for entry in entries:
            print(f"{entry.stem}  {entry.stat().st_size}")
        print(f"{len(entries)} cache entr{'y' if len(entries) == 1 else 'ies'}")
        return EXIT_OK
    client = CachingClient(cache_dir, mode="replay")
    cutoff = None
    if args.older_than is not None:
        cutoff = time.time() - args.older_than
    removed = client.purge_cache(older_than=cutoff)
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.parser.format_usage())
        _fail("usage", str(exc))
        return EXIT_USAGE
    except SystemExit as exc:  # --help and --version exit through here
        return 0 if exc.code in (None, 0) else int(exc.code)

    if getattr(args, "func", None) is None:
        sys.stderr.write(parser.format_usage())
        _fail("usage", "a subcommand is required")
        return EXIT_USAGE

    try:
        config_path = getattr(args, "config", None)
        if config_path:
            text = Path(config_path).read_text("utf-8")
            args.file_config = check(decode_json(text, config_path), CONFIG_SHAPE,
                                     f"{config_path}: config")
        return args.func(args)
    except (ProviderError, ReplayMissError) as exc:
        _fail("provider", str(exc))
        return EXIT_PROVIDER
    except _DATA_ERRORS as exc:
        _fail("data", _data_message(exc))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
