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
