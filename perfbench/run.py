"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload corpus-grid --seed 1 --seconds 20 --trace 0

Run from the root of a procex checkout; the package is imported from
its ``src/`` and the corpora are read from its ``data/``. Scratch files
go under ``.perfbench/`` in the checkout and are removed at the end;
a traced run leaves its span file there.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
untraced (``--trace 0``), the per-layer metrics traced (``--trace 1``).
See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # set iteration order, and with it how often some short-circuiting
    # lookups call procex, depends on the hash seed: fix it, in place
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, sys.orig_argv)

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before every other import
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
MIN_PASSES = 2


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (of all of them below four).

    No single slow or fast pass moves it much, and unlike the median it
    does not jump between the fast and slow stretches that a shared host
    alternates from one pass to the next.
    """
    ordered = sorted(values)
    k = len(ordered) // 4
    return statistics.mean(ordered[k:len(ordered) - k])


def _require_checkout() -> None:
    missing = [p for p in ("src/procex/__init__.py", "data/pet.jsonl")
               if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: not a procex checkout, missing {', '.join(missing)}\n")
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Measurement:
    """What the timed passes of one run gave."""

    def __init__(self):
        self.passes: list = []  # (wall, process CPU, system CPU) seconds
        self.op_seconds: list = []
        self.op_medians: list = []  # median operation seconds of each pass
        self.attempted = 0
        self.failed = 0
        self.unexpected: list = []
        self.known: set = set()
        self.layers: list = []  # per-pass layer numbers, traced runs only
        self.first_spans: list = []


def measure(workload, seconds: float, scratch: Path, runs: Path,
            tracer=None) -> Measurement:
    """Run whole passes until ``seconds`` have gone by (at least MIN_PASSES).

    Pass i gets a fresh directory under ``scratch`` and writes its run
    directories under ``runs/pass-<i>``.
    """
    import layers
    import tracing

    m = Measurement()
    started = time.perf_counter()
    while len(m.passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        name = f"pass-{len(m.passes)}"
        workload.begin_pass(scratch / name, runs / name)
        ops = workload.operations()
        results = []
        gc.collect()
        if tracer is not None:
            tracer.drain()
        system0, cpu0, wall0 = os.times().system, time.process_time(), time.perf_counter()
        for label, op in ops:
            t0 = time.perf_counter()
            try:
                result, error = op(), None
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                result, error = None, f"{type(exc).__name__}: {exc}"
            m.op_seconds.append(time.perf_counter() - t0)
            results.append((label, result, error))
        wall = time.perf_counter() - wall0
        m.passes.append((wall, time.process_time() - cpu0, os.times().system - system0))
        m.op_medians.append(statistics.median(m.op_seconds[-len(ops):]))
        if tracer is not None:
            spans, counts = tracer.drain()

        for label, result, error in results:
            m.attempted += 1
            status, message = ("fail", error) if error else workload.check(label, result)
            if status == "known":
                m.known.add(message)
            elif status != "ok":
                m.unexpected.append(message)
            m.failed += status != "ok"
        m.unexpected.extend(workload.check_pass(results))
        if tracer is not None:
            # of the checks' own calls, only the BPMN read-back is reported
            spans += [s for s in tracer.drain()[0] if s[tracing.NAME] in layers.CHECK_ONLY]
            m.layers.append(layers.per_pass(spans, counts, workload.pass_numbers(), wall))
            m.first_spans = m.first_spans or spans
        del results
    return m


def run(args) -> dict:
    import layers
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    scratch = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            where = scratch / f"setup-{i}"
            where.mkdir(parents=True)
            gc.collect()
            started = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, tracer)
            workload.setup(where)
            workload.warmup()
            setups.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setups)
        if tracer is not None:
            tracer.install()
        m = measure(workload, args.seconds, scratch,
                    ROOT / ".perfbench" / "runs" / args.workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    docs = workload.docs_per_pass
    docs_per_s = docs / interquartile_mean(p[0] for p in m.passes)
    if tracer is None:
        metrics = {
            "docs_per_s": (docs_per_s, "1/s"),
            "cpu_ms_per_doc": (interquartile_mean(p[1] for p in m.passes) / docs * 1000, "ms"),
            "op_ms_p50": (interquartile_mean(m.op_medians) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = layers.combine(m.layers, docs_per_s)
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": len(m.passes),
            "per_pass": m.layers,
            "first_pass_spans": {"fields": list(tracing.SPAN_FIELDS),
                                 "spans": [list(s) for s in m.first_spans]},
        }) + "\n", encoding="utf-8")
    print(f"{args.workload}: {len(m.passes)} passes of {len(m.op_seconds) // len(m.passes)} "
          f"operations ({len(m.op_seconds)} in all), {docs} documents per pass, "
          f"{m.failed} failed"
          + (f" (known fault: {'; '.join(sorted(m.known))})" if m.known else ""))
    print("pass seconds (wall/cpu/system): "
          + " ".join("/".join(f"{x:.4f}" for x in p) for p in m.passes))
    for message in m.unexpected[:10]:
        print(f"check failed: {message}")
    return {
        "correct": not m.unexpected,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_checkout()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
