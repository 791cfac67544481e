"""Byte-exact replay of the benchmark's pinned CLI outputs, in process.

``perfbench/pins.json`` holds the exit code and stdout of every benchmark
case, each exact value cross-checked by an independent route when it was
pinned.  This replays every pinned case through ``cli.main``: plain, csv and
json output, the single large degrees, every table, ``--jobs 2`` fills, and
the refusals with exit codes 2 and 3, and replays two cases under the
benchmark's tracer, which wraps package names from outside and so needs
each of them to stay where it looks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from segre_degrees import cli
from segre_degrees.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import catalog  # noqa: E402
from spans import Tracer  # noqa: E402

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


def test_traced_replay_resolves_every_name_and_keeps_the_bytes(capsys):
    grid = PINS["asympt hyperdet 3 2:12:2 --compare"]
    tracer = Tracer()
    with tracer.patched():
        rw_code = cli.main("verify rw-constants --max 6".split())
        rw_out = capsys.readouterr().out
        asympt_code = cli.main("asympt hyperdet 3 10 --compare".split())
        asympt_out = capsys.readouterr().out
    assert (rw_code, rw_out) == (0, PINS["verify rw-constants --max 6"]["stdout"])
    # n = 10 is one point of the pinned grid 2:12:2
    assert (asympt_code, asympt_out) == (0, grid["stdout"].splitlines(keepends=True)[4])
    calls = {layer: calls for layer, (calls, _) in tracer.layer_totals().items()}
    assert calls["asympt.constants"] == 4
    assert calls["hyperdet.degree"] == 1
    assert calls["cli"] == 2
