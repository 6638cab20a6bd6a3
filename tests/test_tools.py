"""Checks of the figures tools/bench_pairs.py reports, over synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DOCS_PER_S = {"name": "docs_per_s", "better": "higher", "bound": 0.25}
CPU_MS = {"name": "cpu_ms_per_doc", "better": "lower", "bound": 0.25}


def test_compare_counts_a_drop_in_a_higher_is_better_metric_as_worsening(bench_pairs):
    figures = bench_pairs.compare(DOCS_PER_S, {"parent": [100.0, 100.0, 100.0],
                                               "change": [70.0, 70.0, 70.0]})
    assert figures["median_change"] == -0.3
    assert figures["change_wins"] == "0/3"
    assert figures["worse_than_bound"]


def test_compare_counts_no_tie_as_a_win(bench_pairs):
    for metric in (DOCS_PER_S, CPU_MS):
        figures = bench_pairs.compare(metric, {"parent": [5.0, 6.0, 7.0],
                                               "change": [5.0, 6.0, 7.0]})
        assert figures["change_wins"] == "0/3"
        assert figures["median_change"] == 0.0 and not figures["worse_than_bound"]


def test_worse_than_bound_trips_only_past_the_bound(bench_pairs):
    def worse(change):
        return bench_pairs.compare(CPU_MS, {"parent": [10.0, 10.0, 10.0],
                                            "change": [change] * 3})["worse_than_bound"]

    assert not worse(12.4)
    assert worse(12.6)
    assert not worse(7.0)  # a gain is no worsening


def test_verdict_names_a_larger_failed_share(bench_pairs, monkeypatch):
    # the change fails 2 of 6 operations per run, the parent 1 of 6
    failed = {"parent": 1, "change": 2}

    def run_once(checkout, workload, seed, seconds):
        return {"metrics": {"docs_per_s": {"value": 50.0}},
                "failed": failed[checkout], "attempted": 6, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    checkouts = {side: side for side in bench_pairs.SIDES}
    figures = bench_pairs.run_workload(checkouts, "long-doc", [1, 2, 3], 1.0, [DOCS_PER_S])
    text = bench_pairs.verdict(figures)
    assert "no end-to-end metric worsened beyond its bound" in text
    assert "the change failed a larger share of operations: 0.3333 against 0.1667" in text

    failed["change"] = 1
    figures = bench_pairs.run_workload(checkouts, "long-doc", [1, 2, 3], 1.0, [DOCS_PER_S])
    assert bench_pairs.verdict(figures) == "no end-to-end metric worsened beyond its bound"


def test_gain_needs_nine_tenths_of_the_pairs_with_ties_counting_for_neither(bench_pairs):
    parent = [10.0 + i / 100 for i in range(10)]  # quartiles 10.0225 and 10.0675

    def gain(change):
        return bench_pairs.compare(CPU_MS, {"parent": parent, "change": change})["gain"]

    better = [p - 1.0 for p in parent]
    assert gain(better)
    assert gain(better[:9] + [parent[9]])  # 9 wins and a tie
    assert not gain(better[:8] + parent[8:])  # 8 wins and 2 ties
    assert not gain(better[:8] + [p + 1.0 for p in parent[8:]])  # 8 wins and 2 losses
    assert not bench_pairs.compare(CPU_MS, {"parent": parent[:9],
                                            "change": better[:9]})["gain"]  # 9 pairs


def test_gain_needs_a_median_gap_past_the_parent_iqr_in_the_better_direction(bench_pairs):
    parent = [100.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0]
    # the parent's quartiles are 122.5 and 167.5: an IQR of 45
    for gap, holds in ((46.0, True), (44.0, False)):
        figures = bench_pairs.compare(DOCS_PER_S, {"parent": parent,
                                                   "change": [p + gap for p in parent]})
        assert figures["change_wins"] == "10/10"
        assert figures["parent_iqr"] == 45.0
        assert figures["gain"] is holds
    worse = bench_pairs.compare(CPU_MS, {"parent": parent,
                                         "change": [p + 46.0 for p in parent]})
    assert not worse["gain"]


def test_gain_does_not_hold_when_the_change_fails_a_larger_share(bench_pairs, monkeypatch):
    failed = {"parent": 1, "change": 1}
    docs_per_s = {"parent": 50.0, "change": 80.0}

    def run_once(checkout, workload, seed, seconds):
        return {"metrics": {"docs_per_s": {"value": docs_per_s[checkout]}},
                "failed": failed[checkout], "attempted": 6, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    checkouts = {side: side for side in bench_pairs.SIDES}
    seeds = list(range(10))
    figures = bench_pairs.run_workload(checkouts, "long-doc", seeds, 1.0, [DOCS_PER_S])
    assert figures["metrics"]["docs_per_s"]["gain"]
    assert bench_pairs.verdict(figures).endswith("; a gain holds on: docs_per_s")
    assert bench_pairs.report("long-doc", figures).splitlines()[2].split()[-1] == "yes"

    failed["change"] = 2
    figures = bench_pairs.run_workload(checkouts, "long-doc", seeds, 1.0, [DOCS_PER_S])
    assert not figures["metrics"]["docs_per_s"]["gain"]
    assert "gain holds" not in bench_pairs.verdict(figures)


def test_unresolved_when_either_sides_iqr_exceeds_the_bound_of_the_parents_median(
        bench_pairs):
    steady = [10.0] * 10

    def spread(step):
        # quartiles 10 -/+ 2.25 * step: an IQR of 2.5, a quarter of 10, at step 5/9
        return [10.0 + step * (i - 4.5) for i in range(10)]

    def unresolved(parent, change):
        return bench_pairs.compare(CPU_MS, {"parent": parent,
                                            "change": change})["unresolved"]

    assert not unresolved(steady, steady)
    assert not unresolved(steady, spread(0.5))
    assert unresolved(steady, spread(0.6))
    assert unresolved(spread(0.6), steady)
    # a metric whose better direction is higher reads the same spread
    assert bench_pairs.compare(DOCS_PER_S, {"parent": spread(0.6),
                                            "change": steady})["unresolved"]


def test_unresolved_does_not_apply_when_every_change_run_reads_better(bench_pairs):
    parent = [10.0 + 5.0 * i for i in range(10)]  # an IQR of 22.5 on a median of 32.5
    for metric, change in ((CPU_MS, [p - 46.0 for p in parent]),
                           (DOCS_PER_S, [p + 46.0 for p in parent])):
        figures = bench_pairs.compare(metric, {"parent": parent, "change": change})
        assert not figures["unresolved"]
    # one change run no better than the best parent run leaves it unresolved
    change = [p - 46.0 for p in parent[:9]] + [10.0]
    assert bench_pairs.compare(CPU_MS, {"parent": parent, "change": change})["unresolved"]


def test_report_and_verdict_name_an_unresolved_metric(bench_pairs, monkeypatch):
    values = {"parent": iter([5.0, 10.0, 15.0] * 2), "change": iter([10.0] * 6)}

    def run_once(checkout, workload, seed, seconds):
        value = next(values[checkout])
        return {"metrics": {"docs_per_s": {"value": value}, "cpu_ms_per_doc": {"value": 10.0}},
                "failed": 0, "attempted": 6, "correct": True}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    checkouts = {side: side for side in bench_pairs.SIDES}
    figures = bench_pairs.run_workload(checkouts, "long-doc", [1, 2, 3, 4, 5, 6], 1.0,
                                       [DOCS_PER_S, CPU_MS])
    assert figures["metrics"]["docs_per_s"]["unresolved"]
    assert not figures["metrics"]["cpu_ms_per_doc"]["unresolved"]
    assert bench_pairs.verdict(figures) == (
        "no end-to-end metric worsened beyond its bound; "
        "unresolved (spread wider than its bound): docs_per_s")
    lines = bench_pairs.report("long-doc", figures).splitlines()
    assert lines[1].split()[-2:] == ["resolved", "gain"]
    assert [line.split()[-2] for line in lines[2:4]] == ["no", "yes"]
