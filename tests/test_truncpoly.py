"""Ring-level tests for the capped sparse polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from segre_degrees.truncpoly import (
    TruncatedPoly,
    elementary_symmetric,
    graded_exponents,
    series_inverse,
)

from ring_oracle import degree_series_denominator, fraction_evaluate, series_inverse_square


def random_poly(rng: random.Random, caps, max_terms=6, coeff_range=9):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exp = tuple(rng.randint(0, c) for c in caps)
        terms[exp] = rng.randint(-coeff_range, coeff_range)
    return TruncatedPoly(caps, terms)


def test_construction_drops_zero_coefficients():
    p = TruncatedPoly((2, 2), {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}
    assert repr(p) == "TruncatedPoly(caps=(2, 2), terms={(0, 1): 3})"
    assert TruncatedPoly((2,), {}).is_zero


def test_construction_validates():
    with pytest.raises(ValueError):
        TruncatedPoly((-1,))
    with pytest.raises(ValueError):
        TruncatedPoly((2, 2), {(3, 0): 1})
    with pytest.raises(ValueError):
        TruncatedPoly((2, 2), {(0, -1): 1})
    with pytest.raises(ValueError):
        TruncatedPoly((2, 2), {(0, 0, 0): 1})


def test_truncating_product_kills_high_powers():
    one_plus_x = TruncatedPoly((1,), {(0,): 1, (1,): 1})
    assert (one_plus_x * one_plus_x).terms == {(0,): 1, (1,): 2}
    wider = TruncatedPoly((2,), {(0,): 1, (1,): 1})
    assert (wider * wider).terms == {(0,): 1, (1,): 2, (2,): 1}


def test_product_of_linear_forms_in_two_variables():
    e1 = elementary_symmetric((1, 1), 1)
    assert (e1 * e1).terms == {(1, 1): 2}  # x1^2 and x2^2 fall to the caps


def test_cap_mismatch_rejected():
    a = TruncatedPoly((1,), {(1,): 1})
    b = TruncatedPoly((2,), {(1,): 1})
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_elementary_symmetric_small_cases():
    assert elementary_symmetric((1, 1, 1), 0).terms == {(0, 0, 0): 1}
    assert elementary_symmetric((1, 1, 1), 2).terms == {
        (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    assert elementary_symmetric((1, 1), 2).terms == {(1, 1): 1}
    with pytest.raises(ValueError):
        elementary_symmetric((1, 1), 3)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240817)
    for caps in [(3,), (2, 2), (1, 1, 1), (2, 1, 3)]:
        for _ in range(25):
            a = random_poly(rng, caps)
            b = random_poly(rng, caps)
            c = random_poly(rng, caps)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == TruncatedPoly.zero(caps)


def test_series_inverse_identity_and_geometric():
    one = TruncatedPoly.constant((3,), 1)
    assert series_inverse_square(one) == one
    h = TruncatedPoly((3,), {(0,): 1, (1,): -1})
    # 1/(1-x)^2 = sum (j+1) x^j
    assert series_inverse_square(h).terms == {(0,): 1, (1,): 2, (2,): 3, (3,): 4}


def test_series_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_inverse(TruncatedPoly((2,), {(0,): 2}))
    with pytest.raises(ValueError):
        series_inverse_square(TruncatedPoly((2,), {(1,): 1}))


def test_series_inverse_square_is_two_sided_inverse():
    rng = random.Random(11)
    for caps in [(4,), (3, 3), (2, 2, 2), (1, 1, 1, 1)]:
        one = TruncatedPoly.constant(caps, 1)
        for _ in range(10):
            h = one + random_poly(rng, caps, max_terms=4, coeff_range=4) \
                - TruncatedPoly.constant(caps, random_poly(rng, caps).constant_term)
            h = TruncatedPoly(caps, {e: c for e, c in h.terms.items() if any(e)}) + 1
            assert h.constant_term == 1
            inv2 = series_inverse_square(h)
            assert inv2 * h * h == one


def test_inverse_square_of_degree_series_denominators():
    # the denominators that actually occur, over a spread of cap shapes
    shapes = [(6, 6), (4, 4, 4), (2, 2, 2, 2), (1, 1, 1, 1, 1), (1,) * 6, (3, 1, 2)]
    for caps in shapes:
        for weight in (1, 2):
            h = degree_series_denominator(caps, weight)
            assert series_inverse_square(h) * h * h == TruncatedPoly.constant(caps, 1)


def test_coefficient_lookup_and_cap_errors():
    p = TruncatedPoly((1, 1), {(1, 1): 1, (1, 0): 3})
    assert p.coefficient((1, 1)) == 1
    assert p.coefficient((0, 1)) == 0
    with pytest.raises(ValueError):
        p.coefficient((2, 0))
    assert p.constant_term == 0


def test_partial_derivative_and_evaluation():
    # p = 3*x1^2*x2 + x2
    p = TruncatedPoly((2, 1), {(2, 1): 3, (0, 1): 1})
    dp = p.partial_derivative(0)
    assert dp.terms == {(1, 1): 6}
    assert p.partial_derivative(1).terms == {(2, 0): 3, (0, 0): 1}
    assert p.evaluate((Fraction(1, 2), 2)) == Fraction(3, 2) + 2
    with pytest.raises(ValueError):
        p.partial_derivative(2)
    with pytest.raises(ValueError):
        p.evaluate((1,))


def test_evaluation_matches_the_fraction_route():
    rng = random.Random(17)
    for _ in range(300):
        caps = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))
        p = random_poly(rng, caps, max_terms=10)
        point = [rng.choice((rng.randint(-6, 6),
                             Fraction(rng.randint(-9, 9), rng.randint(2, 9))))
                 for _ in caps]
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == fraction_evaluate(p, point)
    # the symmetric vanishing point of the degree-series denominator
    h = TruncatedPoly((1, 1, 1), {(0, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1,
                                 (1, 1, 1): -2})
    assert h.evaluate((Fraction(1, 2),) * 3) == fraction_evaluate(h, (Fraction(1, 2),) * 3) == 0


def test_graded_order_is_deterministic():
    exps = list(graded_exponents((1, 2)))
    assert exps == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (1, 2)]
