"""The summary of ``tools/pair.py`` on synthetic run records: no git, no benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pair", _ROOT / "tools" / "pair.py")
pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair)


def _runs(parent, change, name="case_ms.p50"):
    """Run records of one metric, parent first in each pair, seeds from 1."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [{"seed": seed, "side": "parent", "correct": True, "metrics": {name: p}},
                 {"seed": seed, "side": "change", "correct": True, "metrics": {name: c}}]
    return runs


def test_iqr_is_the_distance_between_the_quartiles():
    assert pair.iqr([5.0]) == 0.0
    assert pair.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert pair.iqr([10.0] * 10) == 0.0


@pytest.mark.parametrize("parent, change, better, bound, verdict, wins", [
    # 10 of 10 better, by more than the parent's IQR of 0.4
    ([50.0, 50.2, 50.4, 50.6, 50.8] * 2, [48.0] * 10, "lower", 0.2, "gain", 10),
    # 8 of 10 better: not nine tenths, so no gain claimed
    ([50.0] * 10, [49.0] * 8 + [51.0] * 2, "lower", 0.2, "no-regression", 8),
    # ties count for neither side
    ([50.0] * 10, [50.0] * 10, "lower", 0.2, "no-regression", 0),
    # 30% slower against a bound of 20%
    ([50.0] * 10, [65.0] * 10, "lower", 0.2, "regression", 0),
    # higher is better: a 30% drop in throughput
    ([10.0] * 10, [7.0] * 10, "higher", 0.2, "regression", 0),
    ([10.0] * 10, [12.0] * 10, "higher", 0.2, "gain", 10),
    # the parent's own spread (IQR 0.4 of a median 1.0) is wider than the bound of 0.1
    ([0.8, 1.2] * 5, [1.0, 1.05] * 5, "lower", 0.1, "unresolved", 5),
    # ... unless every run of the change beats every run of the parent
    ([0.8, 1.2] * 5, [0.7] * 10, "lower", 0.1, "no-regression", 10),
    ([0.8, 1.2] * 5, [0.7] * 8 + [0.9, 0.7], "lower", 0.1, "unresolved", 9),
    # a gain still needs the medians apart by more than the parent's IQR
    ([0.8, 1.2] * 5, [0.5] * 10, "lower", 0.1, "gain", 10),
])
def test_compare_judges_each_metric_by_the_pair_rules(parent, change, better, bound, verdict,
                                                      wins):
    summary = pair.compare(parent, change, better, bound)
    assert (summary["verdict"], summary["wins"], summary["pairs"]) == (verdict, wins, len(parent))
    assert summary["parent"] == parent and summary["change"] == change


def test_summarise_reads_each_end_to_end_metric_of_the_benchmark():
    end_to_end = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = [{"case_ms.p50": 50.0 + s, "case_ms.p90": 60.0, "cases_per_s": 17.0,
               "peak_rss_mb": 13.6, "ok_frac": 1.0, "setup_s": 0.37} for s in range(10)]
    change = [dict(run, **{"cases_per_s": 17.5}) for run in parent]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [{"seed": seed, "side": "parent", "metrics": p},
                 {"seed": seed, "side": "change", "metrics": c}]
    summary = pair.summarise(runs, end_to_end)
    assert sorted(summary) == sorted(spec["name"] for spec in end_to_end)
    p50 = summary["case_ms.p50"]
    assert p50["parent"] == [50.0 + s for s in range(10)]
    assert (p50["parent_median"], p50["change_median"], p50["unit"]) == (54.5, 54.5, "ms")
    assert (p50["verdict"], p50["bound"], p50["better"]) == ("no-regression", 0.2, "lower")
    assert summary["cases_per_s"]["verdict"] == "gain"
    assert summary["ok_frac"]["verdict"] == "no-regression"


def test_summarise_keeps_the_seed_order_of_each_side():
    runs = _runs([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    summary = pair.summarise(runs, [{"name": "case_ms.p50", "unit": "ms", "better": "lower",
                                     "bound": 0.2}])["case_ms.p50"]
    assert (summary["parent"], summary["change"], summary["wins"]) == ([3.0, 1.0, 2.0],
                                                                       [1.0, 2.0, 3.0], 1)


def test_the_parent_runs_first_on_odd_seeds_and_the_change_on_even_ones():
    assert pair.sides(1) == pair.sides(11) == ("parent", "change")
    assert pair.sides(2) == pair.sides(10) == ("change", "parent")
    firsts = [pair.sides(seed)[0] for seed in range(1, 11)]
    assert (firsts.count("parent"), firsts.count("change")) == (5, 5)


def test_run_pairs_runs_each_pair_in_its_order_and_records_it():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        value = seed + (0.5 if side == "change" else 0.0)
        return {"correct": True, "metrics": {"case_ms.p50": value}}

    runs = pair.run_pairs(range(1, 5), run)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert [(r["seed"], r["side"], r["order"]) for r in runs] == [
        (seed, side, 1 + i % 2) for i, (side, seed) in enumerate(calls)]
    summary = pair.summarise(runs, [{"name": "case_ms.p50", "unit": "ms", "better": "lower",
                                     "bound": 0.2}])["case_ms.p50"]
    assert (summary["parent"], summary["change"]) == ([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 4.5])
