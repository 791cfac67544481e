"""Degree-series tests, including an independent expansion oracle."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from segre_degrees.hyperdet import (
    binary_hyperdet_degree,
    degree_series_denominator,
    hyperdet_degree,
    is_dual_nondefective,
    mixed_partial_at_symmetric_point,
    partition_formats,
    sv_hyperdet_degree,
    symmetric_point,
)

from ring_oracle import symbolic_mixed_partial


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


def test_defective_formats_give_zero():
    # no counterexample to the 0-return convention in this range
    for dims in partition_formats(8, max_factors=4):
        if not is_dual_nondefective(dims):
            assert hyperdet_degree(dims) == 0
        else:
            assert hyperdet_degree(dims) > 0


def test_denominator_vanishes_at_symmetric_point():
    for d in range(3, 11):
        h = degree_series_denominator((1,) * d)
        assert h.evaluate(symmetric_point(d)) == 0


def test_mixed_partials_at_symmetric_point():
    assert mixed_partial_at_symmetric_point(3, (1,)) == Fraction(-3, 2)
    assert mixed_partial_at_symmetric_point(3, (1, 2)) == -2
    assert mixed_partial_at_symmetric_point(4, (1,)) == Fraction(-16, 9)
    # closed form -k (d/(d-1))^(d-k-1) over every non-empty index set
    for d in range(3, 9):
        for k in range(1, d + 1):
            expected = -k * Fraction(d, d - 1) ** (d - k - 1)
            for subset in combinations(range(1, d + 1), k):
                assert mixed_partial_at_symmetric_point(d, subset) == expected


def test_mixed_partials_match_symbolic_differentiation():
    for d in range(2, 7):
        for k in range(1, d + 1):
            for subset in combinations(range(1, d + 1), k):
                expected = symbolic_mixed_partial(d, subset)
                assert mixed_partial_at_symmetric_point(d, subset) == expected


def test_repeated_partials_vanish_identically():
    for d in range(2, 9):
        h = degree_series_denominator((1,) * d)
        for i in range(d):
            assert h.partial_derivative(i).partial_derivative(i).is_zero
    with pytest.raises(ValueError):
        mixed_partial_at_symmetric_point(3, (1, 1))
    with pytest.raises(ValueError):
        mixed_partial_at_symmetric_point(3, (0,))
    with pytest.raises(ValueError):
        mixed_partial_at_symmetric_point(3, (4,))


def test_partition_formats_enumeration():
    fmts = list(partition_formats(3))
    assert fmts == [(1,), (1, 1), (1, 1, 1), (1, 2), (2,), (3,)]
    assert all(sum(f) <= 5 for f in partition_formats(5))
    assert all(len(f) <= 2 for f in partition_formats(5, max_factors=2))
