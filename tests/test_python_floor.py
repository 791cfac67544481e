"""The package must parse under the oldest Python that pyproject.toml allows,
even where only a newer interpreter runs the tests."""

from __future__ import annotations

import ast
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


def test_ci_runs_tier1_in_development_mode():
    """Under ``-X dev`` an unclosed file's ``ResourceWarning`` is shown, and
    ``filterwarnings = error`` turns it into a failure like every other warning."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    step = re.search(r"- name: Tier-1 tests\n +run: (.*)", workflow.read_text()).group(1)
    assert " python -X dev -m pytest " in step


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_the_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
