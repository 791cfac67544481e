"""``tools/pair.py``: its summary on synthetic run records, its ``--seeds`` refusals, and
what it exports and records in a temporary git repository whose ``perfbench/run.py`` is a
stub."""

import importlib.util
import json
import subprocess
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


@pytest.mark.parametrize("text, seeds", [("3", [3]), ("1..10", list(range(1, 11))),
                                         ("2..2", [2])])
def test_seed_range_reads_a_seed_or_a_range(text, seeds):
    assert list(pair.seed_range(text)) == seeds


@pytest.mark.parametrize("text", ["5..2", "a..b", "", "1..", "..3", "1..2..3", "1.5"])
def test_a_bad_seed_range_is_a_usage_error_before_any_export(monkeypatch, capsys, text):
    monkeypatch.setattr(pair, "export", lambda rev: pytest.fail("exported"))
    with pytest.raises(SystemExit) as exit_:
        pair.main(["--parent", "HEAD", "--workload", "w", "--seeds", text, "--seconds", "1"])
    assert exit_.value.code == 2
    assert "argument --seeds: want A or A..B with A <= B" in capsys.readouterr().err


# reports case_ms.p50 from value.txt in its own checkout
_STUB_RUN = """import json, pathlib
value = float((pathlib.Path(__file__).parents[1] / "value.txt").read_text())
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"case_ms.p50": {"value": value}}}))
"""


def _git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository with the stub run and value.txt = 1.0 committed, as ``pair.ROOT``."""
    for key in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{key}_NAME", "pair test")
        monkeypatch.setenv(f"GIT_{key}_EMAIL", "pair@example.invalid")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STUB_RUN)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "kept.py").write_text("")
    (tmp_path / "value.txt").write_text("1.0")
    (tmp_path / ".gitignore").write_text(".bench_build/\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "case_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2}]}))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    monkeypatch.setattr(pair, "ROOT", tmp_path)
    return tmp_path


def _pair(monkeypatch, repo):
    """Run ``pair.main`` on seeds 1..2; return its exit code, record and run checkouts."""
    checkouts = []
    run_once = pair.run_once
    monkeypatch.setattr(pair, "run_once",
                        lambda checkout, *a: checkouts.append(checkout) or run_once(checkout, *a))
    code = pair.main(["--parent", "HEAD", "--workload", "w", "--seeds", "1..2",
                      "--seconds", "0"])
    head = _git(repo, "rev-parse", "HEAD")
    return code, json.loads((repo / f"BENCH_w-{head[:7]}.json").read_text()), checkouts


def test_the_change_is_the_exported_working_tree(monkeypatch, repo):
    (repo / "value.txt").write_text("2.0")
    code, record, checkouts = _pair(monkeypatch, repo)
    assert code == 0
    head = _git(repo, "rev-parse", "HEAD")
    parent, change = record["parent"], record["change"]
    assert parent == {"rev": head, "tree": _git(repo, "rev-parse", "HEAD^{tree}")}
    assert change["rev"] != head and set(change) == {"rev", "tree"}
    assert _git(repo, "rev-parse", f"{change['rev']}^{{tree}}") == change["tree"]
    assert _git(repo, "show", f"{change['rev']}:value.txt") == "2.0"
    build = repo / ".bench_build"
    assert set(checkouts) == {build / head, build / change["rev"]}
    summary = record["metrics"]["case_ms.p50"]
    assert (summary["parent"], summary["change"]) == ([1.0, 1.0], [2.0, 2.0])
    assert _git(repo, "status", "--porcelain", "--", "value.txt") == "M value.txt"


def test_a_clean_tree_is_measured_as_head(monkeypatch, repo):
    code, record, checkouts = _pair(monkeypatch, repo)
    assert code == 0
    assert record["change"] == record["parent"]
    assert record["change"]["rev"] == _git(repo, "rev-parse", "HEAD")
    assert set(checkouts) == {repo / ".bench_build" / record["parent"]["rev"]}


@pytest.mark.parametrize("where", ["src", "tests", "tools"])
def test_untracked_files_that_would_not_be_measured_are_refused(monkeypatch, capsys, repo,
                                                                 where):
    (repo / "notes.txt").write_text("")  # untracked outside src/, tests/ and tools/: allowed
    (repo / where).mkdir(exist_ok=True)
    (repo / where / "new.py").write_text("")
    with pytest.raises(SystemExit) as exit_:
        _pair(monkeypatch, repo)
    assert exit_.value.code == 2
    assert f"{where}/new.py" in capsys.readouterr().err
    assert not (repo / ".bench_build").exists()
    (repo / where / "new.py").unlink()
    assert _pair(monkeypatch, repo)[0] == 0
