"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload long-doc --seeds 201,202,203 --json pairs.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one seed per pair; even
pairs (0-based) run the parent first, odd pairs the change first, so
neither side always runs on a host warmed or slowed by the other. The
metrics, their directions and bounds, the default workloads and the
default run length come from the change's BENCHMARK.json.

Per workload and metric it prints each side's median and quartiles
(statistics.quantiles, n=4, inclusive), how many pairs the change won,
the change's worsening as a share of the parent's median against the
metric's bound, whether the change holds a gain, and each side's
failed/attempted operations. A gain holds when, over at least ten
pairs, the change wins at least nine tenths of them (ties count for
neither), its median is better than the parent's by more than the
parent's interquartile range, and it fails no larger share of
operations. --json writes the same figures
with every run's value. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: BENCHMARK.json's)")
    parser.add_argument("--seeds", required=True,
                        help="comma list of seeds, one pair per seed")
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--json", dest="json_path", help="write the figures here")
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last line of standard output."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                 f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(metric: dict, runs: dict, *, larger_failed_share: bool = False) -> dict:
    """The figures of one metric over the pairs of one workload."""
    higher = metric["better"] == "higher"
    parent, change = quartiles(runs["parent"]), quartiles(runs["change"])
    shift = (change["median"] - parent["median"]) / parent["median"] if parent["median"] else 0.0
    worsening = -shift if higher else shift
    pairs = len(runs["parent"])
    wins = sum((c > p) if higher else (c < p)
               for p, c in zip(runs["parent"], runs["change"]))
    parent_iqr = parent["q3"] - parent["q1"]
    improvement = change["median"] - parent["median"]
    if not higher:
        improvement = -improvement
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "median_change": round(shift, 4),
        "change_wins": f"{wins}/{pairs}",
        "median_gap": round(abs(change["median"] - parent["median"]), 4),
        "parent_iqr": round(parent_iqr, 4),
        "worse_than_bound": worsening > metric["bound"],
        "gain": (pairs >= 10 and 10 * wins >= 9 * pairs
                 and improvement > parent_iqr and not larger_failed_share),
        "runs": {side: [round(v, 4) for v in runs[side]] for side in SIDES},
    }


def run_workload(checkouts: dict, workload: str, seeds: list, seconds: float,
                 metrics: list) -> dict:
    results: dict = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            sys.stderr.write(f"{workload} pair {i} seed {seed}: {side}\n")
            results[side].append(run_once(checkouts[side], workload, seed, seconds))
    share = {side: failed_share(results[side]) for side in SIDES}
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": {
            m["name"]: compare(m, {side: [r["metrics"][m["name"]]["value"]
                                          for r in results[side]] for side in SIDES},
                               larger_failed_share=share["change"] > share["parent"])
            for m in metrics
        },
        "failed": {side: [f"{r['failed']}/{r['attempted']}" for r in results[side]]
                   for side in SIDES},
        "failed_share": share,
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
    }


def failed_share(runs: list) -> float:
    """Failed operations as a share of those attempted, over all runs."""
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(figures: dict) -> str:
    worse = [name for name, m in figures["metrics"].items() if m["worse_than_bound"]]
    text = (f"worse than its bound: {', '.join(worse)}" if worse
            else "no end-to-end metric worsened beyond its bound")
    gains = [name for name, m in figures["metrics"].items() if m["gain"]]
    if gains:
        text += f"; a gain holds on: {', '.join(gains)}"
    share = figures["failed_share"]
    if share["change"] > share["parent"]:
        text += (f"; the change failed a larger share of operations: "
                 f"{share['change']:.4g} against {share['parent']:.4g}")
    failed_checks = [side for side in SIDES if not figures["correct"][side]]
    if failed_checks:
        text += f"; a run's check failed on: {', '.join(failed_checks)}"
    return text


def report(workload: str, figures: dict) -> str:
    out = [f"{workload}: {figures['pairs']} pairs, seeds {figures['seeds']}"]
    out.append(f"  {'metric':<16}{'parent med [q1, q3]':>28}{'change med [q1, q3]':>28}"
               f"{'wins':>7}{'worse':>9}{'bound':>7}{'gain':>6}")
    for name, m in figures["metrics"].items():
        sides = [f"{m[s]['median']:.4g} [{m[s]['q1']:.4g}, {m[s]['q3']:.4g}]" for s in SIDES]
        worsening = -m["median_change"] if m["better"] == "higher" else m["median_change"]
        gain = "yes" if m["gain"] else "no"
        flag = "  WORSE" if m["worse_than_bound"] else ""
        out.append(f"  {name:<16}{sides[0]:>28}{sides[1]:>28}{m['change_wins']:>7}"
                   f"{worsening:>+9.1%}{m['bound']:>7.0%}{gain:>6}{flag}")
    for side in SIDES:
        out.append(f"  failed/attempted {side}: {', '.join(figures['failed'][side])}")
    out.append(f"  verdict: {verdict(figures)}")
    return "\n".join(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text("utf-8"))
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    figures = {}
    for workload in workloads:
        figures[workload] = run_workload(checkouts, workload, seeds, seconds,
                                         benchmark["end_to_end"])
        print(report(workload, figures[workload]), flush=True)
    if args.json_path:
        payload = {
            "benchmark": (f"python3 perfbench/run.py --workload <w> --seed <n> "
                          f"--seconds {seconds:g} --trace 0, parent and change each "
                          "from its own checkout"),
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs "
                         "of each side",
            "pairs": {"count": len(seeds),
                      "order": "alternating; even pairs (0-based) run the parent first",
                      "seeds": {w: seeds for w in workloads}},
            "verdicts": {w: verdict(f) for w, f in figures.items()},
            "workloads": figures,
        }
        Path(args.json_path).write_text(json.dumps(payload, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
