"""Degree-series tests, including an independent expansion oracle."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, perm

import pytest

from segre_degrees import combinat, hyperdet
from segre_degrees.combinat import horner, segre_fold
from segre_degrees.hyperdet import (
    binary_hyperdet_degree,
    hyperdet_degree,
    is_dual_nondefective,
    mixed_partial_at_symmetric_point,
    partition_formats,
    sv_hyperdet_degree,
)

from ring_oracle import (
    degree_series_denominator,
    fraction_mixed_partial,
    symbolic_mixed_partial,
    symmetric_point,
)


def as_fraction(pair):
    """The exact rational of a reduced (numerator, denominator) pair."""
    num, den = pair
    assert den > 0 and gcd(num, den) == 1, pair
    return Fraction(num, den)


def series_coefficient_oracle(dims, weight=1):
    """Independent route to the same coefficient: expand the inverse square
    as the geometric series sum_k (k+1) (-p)^k with sympy, p = h - 1."""
    import sympy

    d = len(dims)
    xs = sympy.symbols(f"y0:{d}")
    p = sympy.Integer(0)
    for i in range(1, d + 1):
        e_i = sum(sympy.prod(c) for c in combinations(xs, i))
        p += (1 - weight * i) * e_i
    total = sum(dims)
    series = sympy.expand(sum((k + 1) * (-p) ** k for k in range(total + 1)))
    coeff = series
    for x, n in zip(xs, dims):
        coeff = coeff.coeff(x, n)
    return int(coeff)


def test_dual_nondefectiveness_criterion():
    assert is_dual_nondefective((1, 1, 1))
    assert not is_dual_nondefective((1, 1, 3))
    assert is_dual_nondefective((2, 1, 1))
    assert is_dual_nondefective((0,))
    assert not is_dual_nondefective((2,))
    assert is_dual_nondefective((3, 3))
    assert not is_dual_nondefective((2, 3))
    # a format is checked as every other function that takes one checks it
    with pytest.raises(TypeError):
        is_dual_nondefective((2.0, 1, 1))
    with pytest.raises(ValueError, match="^each dimension must be at least 0, got -3$"):
        is_dual_nondefective((-3, 1))
    with pytest.raises(ValueError, match=re.escape("invalid dimensions ()")):
        is_dual_nondefective(())


def test_known_degrees():
    assert hyperdet_degree((1, 1, 1)) == 4
    for k in range(11):
        assert hyperdet_degree((k, k)) == k + 1
    for k1 in range(9):
        for k2 in range(9):
            if k1 != k2:
                assert hyperdet_degree((k1, k2)) == 0
    assert hyperdet_degree((1, 1, 2)) == 6
    assert hyperdet_degree((1, 1, 3)) == 0


def test_against_independent_expansion():
    for dims in [(1, 1, 2), (1, 1, 1), (2, 2), (1, 2, 3), (1, 1, 1, 1), (1, 1, 3)]:
        assert hyperdet_degree(dims) == series_coefficient_oracle(dims)
    assert sv_hyperdet_degree((1, 1, 1), 2) == series_coefficient_oracle((1, 1, 1), 2)


def test_binary_closed_form():
    assert binary_hyperdet_degree(2) == 2
    assert binary_hyperdet_degree(3) == 4
    # frozen from evaluating the alternating sum with exact rationals
    assert binary_hyperdet_degree(4) == 24
    for d in range(2, 10):
        assert binary_hyperdet_degree(d) == hyperdet_degree((1,) * d)
    with pytest.raises(ValueError):
        binary_hyperdet_degree(0)


def test_binary_closed_form_matches_the_perm_sum():
    for d in range(1, 301):
        assert binary_hyperdet_degree(d) == sum((-2) ** i * perm(d, d - i) * (d - i + 1)
                                                for i in range(d + 1)), d


def test_veronese_single_factor_degrees():
    for n in range(9):
        for omega in range(1, 6):
            assert sv_hyperdet_degree((n,), omega) == (n + 1) * (omega - 1) ** n
    assert sv_hyperdet_degree((2,), 3) == 12
    assert sv_hyperdet_degree((1,), 2) == 2
    assert sv_hyperdet_degree((1, 1), 1) == 2


def test_unit_weight_reduction():
    for dims in partition_formats(6):
        assert sv_hyperdet_degree(dims, 1) == hyperdet_degree(dims)


def test_one_long_factor_builds_one_binomial_row_per_factor(monkeypatch):
    """Each factor's list is read from its row C(n+1, .), built in O(n) steps by
    ``combinat.segre_fold``; no entry is a ``combinat.binomial`` call, which made
    one factor of length n cost about n^3.  At weight 2 the defective format folds."""
    rows = []
    row_builder, binomial = combinat.binomial_row, combinat.binomial

    def recorded(a):
        rows.append(a)
        return row_builder(a)

    def refuse(*args):
        raise AssertionError(f"combinat.binomial{args} called")

    monkeypatch.setattr(combinat, "binomial_row", recorded)
    for name, module in list(sys.modules.items()):
        if name.startswith("segre_degrees"):
            for key, value in list(vars(module).items()):
                if value is binomial:
                    monkeypatch.setattr(module, key, refuse)
    assert sv_hyperdet_degree((1, 1, 3000), 2) > 0
    assert rows == [2, 2, 3001]


def test_the_defective_shortcut_agrees_with_the_fold():
    """At unit weight a dual-defective format takes the GKZ shortcut; the fold it skips,
    read at -1, stays its independent route."""
    defective = [dims for dims in partition_formats(10) if not is_dual_nondefective(dims)]
    assert len(defective) == 52
    for dims in defective:
        g = segre_fold(dims, (1,) * len(dims))
        folded = (-1) ** sum(dims) * horner([(s + 1) * g_s for s, g_s in enumerate(g)], -1)
        assert (hyperdet.route(dims).name, sv_hyperdet_degree(dims), folded) == (
            "defective", 0, 0), dims


def test_a_defective_format_takes_one_path(monkeypatch):
    """The library answers a dual-defective format as the CLI does, without the fold."""
    def refuse(dims, weights):
        raise AssertionError(f"segre_fold{dims} called")

    for module in (combinat, hyperdet):
        monkeypatch.setattr(module, "segre_fold", refuse)
    assert hyperdet_degree((1, 1, 10**5)) == 0
    assert sv_hyperdet_degree((1, 1, 3), 1) == 0
    with pytest.raises(AssertionError, match="segre_fold"):
        sv_hyperdet_degree((1, 1, 3), 2)


def test_defective_formats_give_zero():
    # no counterexample to the 0-return convention in this range
    for dims in (dims for dims in partition_formats(8) if len(dims) <= 4):
        if not is_dual_nondefective(dims):
            assert hyperdet_degree(dims) == 0
        else:
            assert hyperdet_degree(dims) > 0


def test_denominator_vanishes_at_symmetric_point():
    for d in range(3, 11):
        h = degree_series_denominator((1,) * d)
        assert h.evaluate(symmetric_point(d)) == 0


def test_mixed_partials_at_symmetric_point():
    assert mixed_partial_at_symmetric_point(3, 1) == (-3, 2)
    assert mixed_partial_at_symmetric_point(3, 2) == (-2, 1)
    assert mixed_partial_at_symmetric_point(4, 1) == (-16, 9)
    assert mixed_partial_at_symmetric_point(2, 2) == (-1, 1)
    # closed form -k (d/(d-1))^(d-k-1) at every k
    for d in range(3, 9):
        for k in range(1, d + 1):
            expected = -k * Fraction(d, d - 1) ** (d - k - 1)
            assert as_fraction(mixed_partial_at_symmetric_point(d, k)) == expected


def test_mixed_partials_match_symbolic_differentiation():
    # by symmetry the ring's partial in every subset of k variables is the one at k
    for d in range(2, 7):
        for k in range(1, d + 1):
            pair = mixed_partial_at_symmetric_point(d, k)
            for subset in combinations(range(1, d + 1), k):
                assert as_fraction(pair) == symbolic_mixed_partial(d, subset), (d, subset)


def test_mixed_partials_match_the_fraction_sum():
    # the verify suite reads k = 1 and k = 2
    for d in range(2, 81):
        for k in sorted({1, min(2, d), d // 2, d}):
            pair = mixed_partial_at_symmetric_point(d, k)
            assert as_fraction(pair) == fraction_mixed_partial(d, k), (d, k)


def test_repeated_partials_vanish_identically():
    for d in range(2, 9):
        h = degree_series_denominator((1,) * d)
        for i in range(d):
            assert h.partial_derivative(i).partial_derivative(i).is_zero
    # so a partial takes k distinct variables, 1 <= k <= d
    for d in range(2, 9):
        with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
            mixed_partial_at_symmetric_point(d, 0)
        with pytest.raises(ValueError, match=f"^need 1 <= k <= {d} differentiated "
                                             f"variables, got {d + 1}$"):
            mixed_partial_at_symmetric_point(d, d + 1)


def test_partition_formats_enumeration():
    fmts = list(partition_formats(3))
    assert fmts == [(1,), (1, 1), (1, 1, 1), (1, 2), (2,), (3,)]
    assert all(sum(f) <= 5 for f in partition_formats(5))
