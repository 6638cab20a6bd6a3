"""Command line front end.

Exit codes: 0 success, 1 usage, 2 data or validation problem, 3
provider problem.  Every such failure writes one line to stderr shaped
"error: <category>: <message>"; pipeline.DATA_ERRORS and
pipeline.PROVIDER_ERRORS name the two categories.  Any other exception
is a bug and propagates.

Settings follow flag > environment > config file.  Environment names
are the upper-cased flag with a PROCEX_ prefix (PROCEX_MODEL,
PROCEX_MODE, PROCEX_CACHE, PROCEX_OUT); a --config JSON file, taken
by extract, grid, ablate and cache, may hold the same keys in lower
case.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
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
    read_utf8,
)
from .eval import MatchPolicy, aggregate
from .llm import CachingClient, HttpProvider, cache_entries, purge_cache
from .parser import ITEM_KINDS, ParseReport, ground_document
from .pipeline import (
    DATA_ERRORS,
    DEFAULT_MODEL_ID,
    PROVIDER_ERRORS,
    extract_document,
    predictions_record,
    read_predictions,
    render_ablation_table,
    render_grid_table,
    run_ablation,
    run_cell,
    run_grid,
    score_document,
)
from .prompt import PromptConfig

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


def _data_message(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return f"{exc.filename}: no such file"
    return str(exc)


def _distinct(values: list, text: str) -> list:
    """values, unless one repeats: a repeated task or shot count reruns a cell."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"repeated value {value!r} in {text!r}")
    return values


def _comma_list(text: str) -> list:
    """argparse type: a comma list of distinct non-blank parts, at least one."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty comma list {text!r}")
    return _distinct(parts, text)


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a count: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type: a finite number of seconds >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"seconds must be finite and >= 0, got {text!r}"
        )
    return value


def _counts(text: str) -> tuple:
    """argparse type: a comma list of distinct non-negative integers."""
    return tuple(_distinct([_count(part) for part in _comma_list(text)], text))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing never mutates it."""
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

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="shot sampling seed, mixed with each document id")

    p = sub.add_parser("extract",
                       help="run extraction over one document or a dataset")
    add_dataset(p)
    add_llm(p)
    add_seed(p)
    add_config(p)
    p.add_argument("--task", required=True, help="MD, ER, RE, or CE")
    p.add_argument("--doc", help="single document id (default: whole dataset)")
    p.add_argument("--shots", type=_count, default=0, help="few-shot example count")
    p.add_argument("--out", help="output root for dataset runs")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate",
                       help="score a predictions file against gold")
    add_dataset(p)
    p.add_argument("--task", required=True)
    p.add_argument("--predictions", required=True,
                   help="predictions.jsonl from an extraction run")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid",
                       help="score table over tasks and shot counts")
    add_dataset(p)
    add_llm(p)
    add_seed(p)
    add_config(p)
    p.add_argument("--tasks", type=_comma_list,
                   help="comma list (default: the schema's tasks)")
    p.add_argument("--shots", type=_counts, default="0,1,3",
                   help="comma list of shot counts")
    p.add_argument("--out", help="output root for run directories")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate",
                       help="remove prompt components one at a time")
    add_dataset(p)
    add_llm(p)
    add_config(p)
    p.add_argument("--tasks", type=_comma_list, default="MD,RE",
                   help="comma list of tasks")
    p.add_argument("--out", help="directory for the ablation report")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("generate-bpmn",
                       help="compile a document's annotations to BPMN 2.0 XML")
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
    p.add_argument("--older-than", type=_seconds, default=None, metavar="SECONDS",
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


def _cache_dir(args) -> Path:
    """The cache directory setting; a path that exists as a file is a data error."""
    cache_dir = Path(_resolve(args, "cache", ".procex-cache"))
    if cache_dir.exists() and not cache_dir.is_dir():
        raise LoadError(f"cache {cache_dir} is not a directory")
    return cache_dir


def _model_id(args) -> str:
    """The model setting; argv and the environment bring a byte that is not
    UTF-8 as a lone surrogate, which no request or cache key can encode."""
    model_id = _resolve(args, "model", DEFAULT_MODEL_ID)
    try:
        model_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"model id {model_id!r} is not UTF-8 text") from None
    return model_id


def _make_client(args) -> CachingClient:
    mode = _resolve(args, "mode", "record")
    cache_dir = _cache_dir(args)
    # no provider unless recording; CachingClient rejects a misspelled mode
    provider = HttpProvider.from_env() if mode == "record" else None
    return CachingClient(cache_dir, provider, mode=mode)


def _sniff_dataset(path, schema_source=None) -> Dataset:
    """Tell the two dataset layouts apart by their first non-blank line."""
    schema = load_schema(schema_source) if schema_source else None
    _, head = next(json_lines(path), (None, {}))
    if "format_version" in head:
        return load_canonical(path, schema)
    return load_pet(path, schema)


def _load_dataset(args, tasks) -> Dataset:
    """The --dataset file, checked to define every one of tasks."""
    dataset = _sniff_dataset(args.dataset, args.schema)
    for task in tasks:
        if task not in dataset.schema.tasks:
            raise ValidationError(
                f"task {task!r} is not defined for dataset {dataset.schema.dataset_name!r} "
                f"(has: {', '.join(dataset.schema.tasks)})"
            )
    return dataset


def _report(table: str, rows, what: str) -> int:
    """Print a score table; report its failed rows under the first one's category."""
    sys.stdout.write(table)
    failed = [row for row in rows if row.failure is not None]
    if not failed:
        return EXIT_OK
    message = f"{len(failed)} {what} failed; first: {failed[0].failure}"
    if isinstance(failed[0].error, DATA_ERRORS):
        _fail("data", message)
        return EXIT_DATA
    _fail("provider", message)
    return EXIT_PROVIDER


# ---------------------------------------------------------------------------
# subcommands

def cmd_extract(args) -> int:
    task = args.task
    dataset = _load_dataset(args, [task])
    model_id = _model_id(args)
    config = PromptConfig(
        task=task, schema=dataset.schema,
        shot_count=args.shots, shot_seed=args.seed,
    )
    client = _make_client(args)
    if args.doc is not None:
        doc = dataset.document(args.doc)
        _, _, report = extract_document(
            doc, config, client, shot_pool=dataset.documents, model_id=model_id,
        )
        print(predictions_record(doc.id, task, report))
        return EXIT_OK
    out_root = Path(_resolve(args, "out", "runs"))
    cell = run_cell(dataset, config, client, out_root=out_root, model_id=model_id)
    sys.stdout.write(f"run: {out_root / cell.manifest_id}\n")
    sys.stdout.write(render_grid_table([cell]))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    task = args.task
    dataset = _load_dataset(args, [task])
    doc_ids = {doc.id for doc in dataset.documents}
    reports: dict = {}
    for where, record, items in read_predictions(args.predictions):
        if record.get("task") != task:
            raise ValidationError(
                f"{where}: record for task {record.get('task')!r}, "
                f"expected {task!r}"
            )
        for item in record["items"]:
            if ITEM_KINDS[item["kind"]].task != task:
                raise ValidationError(
                    f"{where}: item of kind {item['kind']!r} in a record for task {task!r}"
                )
        doc_id = record["document_id"]
        if doc_id not in doc_ids:
            raise ValidationError(f"{where}: record for unknown document {doc_id!r}")
        if doc_id in reports:
            raise ValidationError(f"{where}: second record for document {doc_id!r}")
        reports[doc_id] = ParseReport(items, error_lines=(), ignored_line_count=0)
    policy = MatchPolicy.from_schema(dataset.schema)
    # documents missing from the file count as predicting nothing
    empty = ParseReport(items=(), error_lines=(), ignored_line_count=0)
    total = aggregate([
        score_document(task, reports.get(doc.id, empty), doc, policy)[1].counts
        for doc in dataset.documents
    ])
    print(
        f"{task}: P={total.precision:.2f} R={total.recall:.2f} "
        f"F1={total.f1:.2f} (documents: {len(dataset.documents)})"
    )
    return EXIT_OK


def cmd_grid(args) -> int:
    dataset = _load_dataset(args, args.tasks or ())
    client = _make_client(args)
    result = run_grid(
        dataset, tasks=args.tasks, shot_counts=args.shots, client=client,
        out_root=Path(_resolve(args, "out", "runs")),
        model_id=_model_id(args),
        shot_seed=args.seed,
    )
    return _report(result.table_text, result.cells, "cell(s)")


def cmd_ablate(args) -> int:
    dataset = _load_dataset(args, args.tasks)
    client = _make_client(args)
    out = _resolve(args, "out")
    rows = run_ablation(
        dataset, tuple(args.tasks), client=client,
        out_root=None if out is None else Path(out),
        model_id=_model_id(args),
    )
    return _report(render_ablation_table(rows), rows, "variant(s)")


def _doc_from_predictions(doc, schema, paths):
    """Swap a document's annotations for predicted ones."""
    records = [parsed for path in paths for _, record, parsed in read_predictions(path)
               if record["document_id"] == doc.id]
    if not records:
        raise ValidationError(f"no predictions record for document {doc.id!r}")
    items = [item for parsed in records for item in parsed]
    report = ParseReport(items=tuple(items), error_lines=(), ignored_line_count=0)

    grounding = ground_document(report, doc)
    for item in grounding.ungrounded_mentions:
        sys.stderr.write(
            f"warning: mention {item.surface!r} not groundable, dropped\n"
        )
    mentions: list = []
    for hit in grounding.mentions:
        # a dropped mention keeps its claim on its tokens, so no span moves
        if schema.canonical_mention_type(hit.mention_type) is None:
            sys.stderr.write(f"warning: mention {hit.matched_surface!r} has type "
                             f"{hit.mention_type!r}, not in the schema, dropped\n")
            continue
        mentions.append(Mention(f"p{len(mentions)}", hit.mention_type, hit.token_indices))
    span_to_id = {m.token_indices: m.id for m in mentions}

    entities: list = []
    for surface in grounding.ungrounded_surfaces:
        sys.stderr.write(f"warning: cluster surface {surface!r} not groundable, dropped\n")
    for members in grounding.clusters:
        ids = [span_to_id.get(m.token_indices) for m in members]
        if len(ids) < 2:
            continue  # a singleton is no coreference
        if None in ids:
            sys.stderr.write(
                f"warning: cluster {[m.matched_surface for m in members]!r} member "
                "missing from predicted mentions, dropped\n"
            )
            continue
        entities.append(Entity(f"pe{len(entities)}", frozenset(ids)))

    relations: list = []
    for grounded in grounding.relations:
        if schema.canonical_relation_type(grounded.relation_type) is None:
            sys.stderr.write(f"warning: relation {grounded.relation_type!r} "
                             "not in the schema, dropped\n")
            continue
        src = span_to_id.get(grounded.source_indices)
        tgt = span_to_id.get(grounded.target_indices)
        if src is None or tgt is None:
            sys.stderr.write(
                f"warning: relation {grounded.relation_type!r} endpoint "
                "missing from predicted mentions, dropped\n"
            )
            continue
        relations.append(Relation(f"pr{len(relations)}", grounded.relation_type, src, tgt))

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
    cache_dir = _cache_dir(args)
    if args.action == "list":
        if not cache_dir.is_dir():
            print(f"cache {cache_dir} is empty")
            return EXIT_OK
        entries = cache_entries(cache_dir)
        for entry in entries:
            print(f"{entry.stem}  {entry.stat().st_size}")
        print(f"{len(entries)} cache entr{'y' if len(entries) == 1 else 'ies'}")
        return EXIT_OK
    cutoff = None
    if args.older_than is not None:
        cutoff = time.time() - args.older_than
    removed = purge_cache(cache_dir, older_than=cutoff)
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
            text = read_utf8(config_path, config_path)
            args.file_config = check(decode_json(text, config_path), CONFIG_SHAPE,
                                     f"{config_path}: config")
            # argv and the environment cannot hold NUL; a JSON string can
            for name in ("cache", "out"):
                if "\0" in args.file_config.get(name, ""):
                    raise LoadError(f"{config_path}: config field {name!r} holds a NUL byte")
        return args.func(args)
    except PROVIDER_ERRORS as exc:
        _fail("provider", str(exc))
        return EXIT_PROVIDER
    except DATA_ERRORS as exc:
        _fail("data", _data_message(exc))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
