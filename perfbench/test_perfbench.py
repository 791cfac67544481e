"""Self-tests of the benchmark's own machinery.

Run with:  python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import harness  # noqa: E402
from spans import self_times  # noqa: E402


def _class_counts(cases):
    return Counter(case.cost_class for case in cases)


@pytest.mark.parametrize("name", sorted(catalog.WORKLOADS))
def test_same_seed_same_cases_and_fixed_class_counts(name):
    workload = catalog.WORKLOADS[name]
    first = catalog.CaseStream(workload, 7).rounds(3)
    again = catalog.CaseStream(workload, 7).rounds(3)
    assert first == again
    other = catalog.CaseStream(workload, 8).rounds(3)
    expected = {c.name: 3 * c.per_round for c in workload.classes}
    assert _class_counts(first) == expected
    assert _class_counts(other) == expected


@pytest.mark.parametrize("name", sorted(catalog.WORKLOADS))
def test_fresh_seed_changes_members_and_order(name):
    workload = catalog.WORKLOADS[name]
    a = catalog.CaseStream(workload, 1).next_round()
    b = catalog.CaseStream(workload, 2).next_round()
    assert [c.command for c in a] != [c.command for c in b]
    assert Counter(c.command for c in a) != Counter(c.command for c in b)


def test_deck_balances_members_within_a_class():
    workload = catalog.WORKLOADS["verify-sweeps"]
    cases = catalog.CaseStream(workload, 3).rounds(6)
    for cls in workload.classes:
        counts = Counter(c.command for c in cases if c.cost_class == cls.name)
        assert set(counts) == set(cls.members)
        assert max(counts.values()) - min(counts.values()) <= 1


def test_every_catalog_case_is_pinned():
    pins = harness.load_pins()
    assert set(catalog.all_members()) <= set(pins)
    for command in catalog.all_members():
        pin = pins[command]
        assert pin["exit"] in (0, 2, 3)
        assert pin["exit"] == 0 or pin["stdout"] == ""


@pytest.mark.parametrize("command, right, wrong", [
    # The header m=0..m=5 and the labels P1xP1 hold the right values too, so
    # only a positional check refuses these.
    ("table table2", "P1xP1  2 ", "P1xP1  3 "),
    ("table table2 --format csv", "P1xP1,2,", "P1xP1,3,"),
    ("table stabilization", "P1xP1: 2 6", "P1xP1: 3 6"),
    ("table stabilization", "(stable from m=2)", "(stable from m=3)"),
    ("table dual-example --format csv", "\n0,4\n", "\n0,5\n"),
])
def test_pin_check_refuses_one_wrong_table_cell(command, right, wrong):
    import pin

    stdout = harness.load_pins()[command]["stdout"]
    values = pin.expected(command)[2]
    assert pin.exact_cells(command, stdout) == values
    assert right in stdout
    assert pin.exact_cells(command, stdout.replace(right, wrong, 1)) != values


def test_wrong_pin_is_a_failure_not_a_crash(monkeypatch):
    import run

    workload = catalog.Workload("tiny", (
        catalog.CostClass("scalar", 2, ("hyperdet 1,1,1", "eddeg 1,1,1")),), warmup=())
    pins = {"hyperdet 1,1,1": {"exit": 0, "stdout": "4\n"},
            "eddeg 1,1,1": {"exit": 0, "stdout": "7\n"}}  # the true value is 6
    monkeypatch.setattr(run, "MIN_CASES", 4)
    with harness.Spawner(harness.child_env()) as spawner:
        result = run.measure(workload, 1, 0.0, spawner, pins)
    assert len(result["samples"]) == 4
    assert result["mismatches"] == ["eddeg 1,1,1", "eddeg 1,1,1"]
    assert result["metrics"]["ok_frac"][0] == 0.5
    assert result["failed_frac"] == 0.5


def test_spawner_reports_the_child_not_the_parent():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # make this process's peak RSS large
    with harness.Spawner(harness.child_env()) as spawner:
        ok = spawner.cli("hyperdet 1,1,1")
        refused = spawner.cli("table nosuchtable")
    assert (ok.exit_code, ok.stdout) == (0, b"4\n")
    assert (refused.exit_code, refused.stdout) == (2, b"")
    assert 0 < ok.maxrss_kb < 48 * 1024
    assert ok.wall_ms > 0


def test_self_time_with_overlapping_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 1..6)
    # and [8, 12] (clipped to 8..10); the first child has a child [2, 3].
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 3.0, 6.0, 0, 0),
        ("c", 8.0, 12.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])
