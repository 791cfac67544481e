from __future__ import annotations

import ast
from math import factorial
from pathlib import Path

import pytest

import segre_degrees
from segre_degrees import asympt, combinat
from segre_degrees.combinat import binomial, multinomial


def test_binomial_standard_and_convention():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_multinomial_small_and_oracle():
    assert multinomial((1, 1)) == 2
    assert multinomial((1, 1, 1)) == 6
    # direct factorial evaluation as the oracle
    assert multinomial((2, 3)) == factorial(5) // (factorial(2) * factorial(3)) == 10
    assert multinomial(()) == 1
    assert multinomial((0, 4)) == 1
    with pytest.raises(ValueError):
        multinomial((2, -1))


def test_verification_error_lives_in_combinat_and_is_reexported():
    assert asympt.VerificationError is combinat.VerificationError


def test_no_assert_statements_in_the_package():
    """Invariants must raise: ``python -O`` strips ``assert``."""
    found = []
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_hyperdet_and_the_package_import_the_ring():
    """The truncated ring is a test oracle and the ``rw-constants`` route; it
    must not creep back onto another production path."""
    importers = set()
    for path in sorted(Path(segre_degrees.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "truncpoly" for name in names):
                importers.add(path.name)
    assert importers == {"__init__.py", "hyperdet.py"}
