"""Per-layer metrics of a traced run, derived from its spans and counts.

``per_pass`` turns one pass's spans into numbers; ``combine`` reports
counts as their mean per pass (they repeat exactly from pass to pass),
times as the median pass, and ratios over the whole run. Layer ``ms``
are thread CPU milliseconds (see tracing.py); provider busy time and
client waits are wall milliseconds, since both are sleeps.
"""

from __future__ import annotations

import statistics

from tracing import self_cpu, summarize

SLOTS = 4  # the client's max_concurrency and the pipeline's pool size

# name -> (unit, how passes combine)
METRICS = {
    "corpus.load.calls": ("count", "mean"),
    "corpus.load.ms": ("ms", "median"),
    "corpus.normalize_type_name.calls": ("count", "mean"),
    "cli.main.self_ms": ("ms", "median"),
    "prompt.assemble.calls": ("count", "mean"),
    "prompt.assemble.ms": ("ms", "median"),
    "prompt.select_shots.ms": ("ms", "median"),
    "prompt.render_gold.calls": ("count", "mean"),
    "llm.complete.calls": ("count", "mean"),
    "llm.complete.self_ms": ("ms", "median"),
    "llm.cache_key.ms": ("ms", "median"),
    "llm.cache_hits": ("count", "mean"),
    "llm.cache_misses": ("count", "mean"),
    "llm.cache_hit_ratio": ("ratio", "llm.cache_hits/llm.cache_lookups"),
    "llm.provider.calls": ("count", "mean"),
    "llm.provider.retries": ("count", "mean"),
    "llm.provider.busy_ms": ("ms", "median"),
    "llm.provider.success_ratio": ("ratio", "llm.provider.successes/llm.provider.calls"),
    "llm.wait_ms": ("ms", "median"),
    "llm.slot_occupancy": ("ratio", "median"),
    "parser.parse.calls": ("count", "mean"),
    "parser.parse.ms": ("ms", "median"),
    "parser.error_lines": ("count", "mean"),
    "parser.ignored_lines": ("count", "mean"),
    "parser.ground.calls": ("count", "mean"),
    "parser.ground.ms": ("ms", "median"),
    "parser.ungrounded": ("count", "mean"),
    "parser.grounded_ratio": ("ratio", "parser.grounded/parser.surfaces"),
    "eval.score_md.ms": ("ms", "median"),
    "eval.score_er.ms": ("ms", "median"),
    "eval.score_re.ms": ("ms", "median"),
    "eval.score_constraints.ms": ("ms", "median"),
    "eval.max_matching.pairs": ("count", "mean"),
    "pipeline.run_cell.self_ms": ("ms", "median"),
    "pipeline.run_dir.bytes": ("bytes", "mean"),
    "bpmn.consolidate.ms": ("ms", "median"),
    "bpmn.build_vertices.ms": ("ms", "median"),
    "bpmn.link.ms": ("ms", "median"),
    "bpmn.validate_graph.ms": ("ms", "median"),
    "bpmn.layout.ms": ("ms", "median"),
    "bpmn.serialize_bpmn.ms": ("ms", "median"),
    "bpmn.parse_bpmn.ms": ("ms", "median"),
    "bpmn.nearest_left_actor.calls": ("count", "mean"),
    "traced.docs_per_s": ("1/s", "run"),
}

LOADERS = ("corpus.load_pet", "corpus.load_canonical")
GROUNDERS = ("parser.ground_report", "parser.ground_clusters", "parser.ground_relations")
SELF_TIMED = ("cli.main", "llm.complete", "pipeline.run_cell")
CHECK_ONLY = ("bpmn.parse_bpmn",)


def per_pass(spans, counts, numbers: dict, wall: float) -> dict:
    """Numbers of one pass; ``numbers`` are those the workload measured itself."""
    calls, seconds = summarize(spans)
    own = self_cpu(spans, SELF_TIMED)
    out = {
        "corpus.load.calls": sum(calls[n] for n in LOADERS),
        "corpus.load.ms": sum(seconds[n] for n in LOADERS) * 1000,
        "parser.ground.calls": sum(calls[n] for n in GROUNDERS),
        "parser.ground.ms": sum(seconds[n] for n in GROUNDERS) * 1000,
        "parser.grounded": counts["parser.grounded"],
        "parser.surfaces": counts["parser.grounded"] + counts["parser.ungrounded"],
        "llm.cache_lookups": counts["llm.cache_hits"] + counts["llm.cache_misses"],
    }
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = own[name] * 1000
    for name, (unit, _) in METRICS.items():
        if name in out or unit == "ratio" or name == "traced.docs_per_s":
            continue
        if name in numbers:
            out[name] = numbers[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]] + counts[name]
        elif name.endswith(".ms"):
            out[name] = seconds[name[: -len(".ms")]] * 1000
        else:
            out[name] = counts[name]
    out["llm.provider.successes"] = out["llm.provider.calls"] - out["llm.provider.retries"]
    out["llm.slot_occupancy"] = out["llm.provider.busy_ms"] / 1000 / (SLOTS * wall)
    return out


def combine(passes: list, traced_docs_per_s: float) -> dict:
    """One value per metric over all passes of a traced run."""
    out = {}
    for name, (unit, how) in METRICS.items():
        if how == "run":
            value = traced_docs_per_s
        elif how == "mean":
            value = sum(p[name] for p in passes) / len(passes)
        elif how == "median":
            value = statistics.median(p[name] for p in passes)
        else:
            numerator, denominator = how.split("/")
            total = sum(p[denominator] for p in passes)
            value = sum(p[numerator] for p in passes) / total if total else 0.0
        out[name] = (value, unit)
    return out
