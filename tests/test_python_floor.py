"""The package must parse under the oldest Python that pyproject.toml allows,
even where only a newer interpreter runs the tests."""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "segre_degrees").glob("*.py"))
FLOOR = (3, 10)  # requires-python = ">=3.10"


def test_requires_python_names_the_floor():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in pyproject.read_text()


def test_ci_runs_the_floor():
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    matrix = re.search(r"python-version: \[(.*)\]", workflow.read_text()).group(1)
    assert f'"{FLOOR[0]}.{FLOOR[1]}"' in matrix.split(", ")


def test_ci_bounds_the_tier1_job():
    """Tier-1 takes well under a minute; without a bound a hung run holds its
    runner for the 6 h default."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    assert re.findall(r"^    timeout-minutes: (\d+)$", workflow.read_text(), re.M) == ["15"]


def test_ci_runs_every_benchmark_workload_as_a_smoke_check():
    """``tests/test_cli_golden.py`` replays the pins in process; this step replays them through
    the benchmark's own child processes, and its tracer, on every workload.  The step fails
    unless each run exits 0 (bash's pipefail) and its last line says ``"correct": true``."""
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"- name: Run the benchmark once per workload as a smoke check\n"
                     r" +shell: bash\n +run: \|\n((?: {10}.*\n)+)", workflow).group(1)
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert re.search(r"for workload in (.*); do", step).group(1).split() == workloads
    assert re.search(r"for trace in (.*); do", step).group(1).split() == ["0", "1"]
    assert ("python3 perfbench/run.py --workload $workload --seed 1 --seconds 1 --trace $trace "
            "\\ | tail -n 1 | python3 -c 'import json, sys; "
            "sys.exit(json.load(sys.stdin)[\"correct\"] is not True)'") in " ".join(step.split())


def test_ci_recomputes_every_pin_by_its_independent_route():
    """Replaying a pin checks only that the bytes did not move; ``perfbench/pin.py`` checks
    each pinned exact value against a route that does not share the CLI's code path."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    steps = re.findall(r"^ +run: (.*)$", workflow.read_text(), re.M)
    assert "python3 perfbench/pin.py && git diff --exit-code perfbench/pins.json" in steps


def test_ci_runs_tier1_in_development_mode():
    """Under ``-X dev`` an unclosed file's ``ResourceWarning`` is shown, and
    ``filterwarnings = error`` turns it into a failure like every other warning."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    step = re.search(r"- name: Tier-1 tests\n +run: (.*)", workflow.read_text()).group(1)
    assert " python -X dev -m pytest " in step


def test_ci_replays_the_pins_under_optimization():
    """Under ``-OO`` an assert or docstring the program leans on is gone; the golden, refusal,
    contract and JSON and CSV writer files must still pass.  The whole suite cannot: some tests
    read docstrings."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    steps = re.findall(r"^ +run: (.*)$", workflow.read_text(), re.M)
    assert ('PYTHONPATH=src python -OO -m pytest -q -W "ignore::pytest.PytestConfigWarning" '
            "tests/test_cli_golden.py tests/test_refusals.py tests/test_cli_contract.py "
            "tests/test_render.py") in steps


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_the_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
