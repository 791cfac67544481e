"""Byte-exact replay of the benchmark's pinned CLI outputs, in process.

``perfbench/pins.json`` holds the exit code and stdout of every benchmark
case, each exact value cross-checked by an independent route when it was
pinned.  This replays every pinned case through ``cli.main``: plain, csv and
json output, the single large degrees, every table, ``--jobs 2`` fills, and
the refusals with exit codes 2 and 3.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from segre_degrees.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import catalog  # noqa: E402

PINS = json.loads((PERFBENCH / "pins.json").read_text())["cases"]


def _replayed_commands():
    return [member
            for name in ("small-requests", "verify-sweeps", "exact-degrees")
            for cls in catalog.WORKLOADS[name].classes
            for member in cls.members]


@pytest.mark.parametrize("command", _replayed_commands())
def test_pinned_stdout_and_exit_code(command, capsys):
    pin = PINS[command]
    code = main(command.split())
    assert code == pin["exit"]
    assert capsys.readouterr().out == pin["stdout"]
