"""ED degree tests: closed forms, the product-coefficient route, and the
matrix polynomial, each against an independent oracle where one exists."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from segre_degrees import eddeg, hyperdet
from segre_degrees.combinat import fold_cost
from segre_degrees.eddeg import (
    binary_generic_ed_degree,
    frobenius_ed_degree,
    generic_ed_degree,
    matrix_ed_polynomial,
    stabilization_onset,
    veronese_frobenius_ed_degree,
)


def fo_coefficient_oracle(dims):
    """The same product coefficient, expanded by sympy instead of the
    univariate kernel."""
    import sympy

    d = len(dims)
    hs = sympy.symbols(f"h0:{d}")
    poly = sympy.Integer(1)
    for i, n in enumerate(dims):
        hhat = sum(hs[j] for j in range(d) if j != i)
        poly *= sum(hhat ** k * hs[i] ** (n - k) for k in range(n + 1))
    poly = sympy.expand(poly)
    for h, n in zip(hs, dims):
        poly = poly.coeff(h, n)
    return int(poly)


def det_oracle(rows):
    """Cofactor-expansion determinant over exact rationals."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * det_oracle(minor)
            total += -term if j & 1 else term
    return total


def test_known_frobenius_values():
    assert frobenius_ed_degree((1, 1, 1)) == 6
    assert frobenius_ed_degree((2, 2, 4)) == 61
    assert frobenius_ed_degree((1, 1, 1, 1)) == 24
    for d in range(1, 8):
        assert frobenius_ed_degree((1,) * d) == factorial(d)
    for n in range(11):
        assert frobenius_ed_degree((n, n)) == n + 1
    assert frobenius_ed_degree((5,)) == 1


def test_frobenius_against_independent_expansion():
    for dims in [(1, 2), (2, 2), (1, 1, 2), (1, 2, 3), (2, 2, 2)]:
        assert frobenius_ed_degree(dims) == fo_coefficient_oracle(dims)


def test_frobenius_permutation_invariance():
    rng = random.Random(7)
    for dims in [(1, 2, 3), (2, 2, 4), (1, 1, 3, 2)]:
        value = frobenius_ed_degree(dims)
        for _ in range(3):
            shuffled = list(dims)
            rng.shuffle(shuffled)
            assert frobenius_ed_degree(shuffled) == value


def test_veronese_frobenius_closed_form():
    assert veronese_frobenius_ed_degree(3, 2) == 4
    assert veronese_frobenius_ed_degree(1, 3) == 3
    # frozen from (3^3 - 1)/2
    assert veronese_frobenius_ed_degree(2, 4) == 13
    for n in range(9):
        assert veronese_frobenius_ed_degree(n, 2) == n + 1
        for omega in range(3, 6):
            assert veronese_frobenius_ed_degree(n, omega) * (omega - 2) == \
                (omega - 1) ** (n + 1) - 1
    with pytest.raises(ValueError):
        veronese_frobenius_ed_degree(2, 1)


def test_generic_closed_forms():
    assert generic_ed_degree((1, 1)) == 6
    assert generic_ed_degree((1, 3)) == 14
    for n in range(1, 21):
        assert generic_ed_degree((1, n)) == 4 * n + 2
    for n in range(9):
        for omega in range(1, 6):
            expected, rem = divmod(
                (2 * omega - 1) ** (n + 1) - (omega - 1) ** (n + 1), omega)
            assert rem == 0
            assert generic_ed_degree((n,), (omega,)) == expected
    assert generic_ed_degree((2,), (2,)) == 13


def test_binary_generic_matches_general_formula():
    # d = 1 evaluates to 1 (a projective line is the whole space); the
    # closed form and the general sum agree on it
    assert binary_generic_ed_degree(1) == 1
    assert binary_generic_ed_degree(2) == 6
    # frozen from the exact rational sum
    assert binary_generic_ed_degree(3) == 34
    for d in range(1, 9):
        assert binary_generic_ed_degree(d) == generic_ed_degree((1,) * d)


@pytest.mark.parametrize("dims, weights, generic, name, value", [
    ((2, 2), (1, 1), False, "frobenius-fold", frobenius_ed_degree((2, 2))),
    ((4,), (1,), False, "frobenius-fold", 1),
    ((2, 3), (1, 1), True, "segre-fold", generic_ed_degree((2, 3))),
    ((1, 2), (2, 3), True, "segre-fold", generic_ed_degree((1, 2), (2, 3))),
    ((4,), (3,), False, "veronese-closed-form", veronese_frobenius_ed_degree(4, 3)),
    ((1, 1, 9), (1, 1, 1), False, "frobenius-boundary", 8),
])
def test_each_route_names_the_function_it_calls(dims, weights, generic, name, value):
    route = eddeg.route(dims, weights, generic)
    assert (route.name, route.call()) == (name, value)


def test_the_boundary_route_gives_the_fold_of_the_long_format():
    """On every format of ``partition_formats(12)`` with d >= 2 and one factor above the sum of
    the others, and on a seeded grid of bases (zeros included) with a long factor at a random
    place."""
    formats = [f for f in hyperdet.partition_formats(12) if len(f) >= 2 and 2 * max(f) > sum(f)]
    assert len(formats) == 78
    rng = random.Random(20140601)
    for _ in range(60):
        base = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
        base.insert(rng.randrange(len(base) + 1), sum(base) + rng.randrange(1, 80))
        formats.append(tuple(base))
    for dims in formats:
        route = eddeg.route(dims, (1,) * len(dims), False)
        assert (route.name, route.call()) == ("frobenius-boundary", frobenius_ed_degree(dims))


def test_the_boundary_route_charges_the_boundary_fold():
    """The factor above the sum of the others is lowered to that sum, once, wherever it is;
    a format at the boundary (no factor above the sum) keeps the fold."""
    route = eddeg.route((2, 3000, 3), (1, 1, 1), False)
    assert route.peak == fold_cost((2, 5, 3), (1, 1, 1), 1)
    for dims in ((2, 2), (1, 1, 2), (3, 4, 5), (7,), (0, 0)):
        assert eddeg.route(dims, (1,) * len(dims), False).name == "frobenius-fold"


def test_the_boundary_route_is_taken_exactly_where_the_format_is_dual_defective():
    """The ED degree of base x P^m stops growing where the hyperdeterminant of the format
    turns defective: one predicate, ``hyperdet.is_dual_nondefective``, names both."""
    formats = [f for f in hyperdet.partition_formats(12) if len(f) >= 2]
    names = {dims: eddeg.route(dims, (1,) * len(dims), False).name for dims in formats}
    assert {dims for dims, name in names.items() if name == "frobenius-boundary"} == {
        dims for dims in formats if not hyperdet.is_dual_nondefective(dims)}
    assert set(names.values()) == {"frobenius-boundary", "frobenius-fold"}


def test_a_frobenius_degree_with_weights_on_two_factors_has_no_route():
    for weights in ((2, 2), (1, 3)):
        with pytest.raises(ValueError, match="^no Frobenius ED degree route for weights "):
            eddeg.route((1, 2), weights, False)
    # a weight count that does not match is refused by the route itself, on either metric
    for weights, generic in (((1,), False), ((1, 1, 1), False), ((1,), True)):
        with pytest.raises(ValueError, match="^weights must match the number of factors$"):
            eddeg.route((1, 2), weights, generic)


@pytest.mark.parametrize("module", [eddeg, hyperdet], ids=["eddeg", "hyperdet"])
def test_route_is_public_and_documented(module):
    assert "route" in module.__all__
    assert module.route.__doc__ and "``segre-fold``" in module.route.__doc__


def test_stabilization_onset_rows():
    assert [v for _, v in stabilization_onset((1, 1), 5)] == [2, 6, 8, 8, 8, 8]
    assert [v for _, v in stabilization_onset((2, 3), 5)] == [3, 18, 55, 104, 138, 148]
    assert [v for _, v in stabilization_onset((1, 2), 5)] == [2, 8, 15, 18, 18, 18]
    assert [v for _, v in stabilization_onset((2, 2), 5)] == [3, 15, 37, 55, 61, 61]
    # the m = 5 value holds at a long factor too
    assert frobenius_ed_degree((2, 3, 3000)) == 148
    with pytest.raises(ValueError):
        stabilization_onset((2, 3), 4)


def test_stabilization_constancy_small_sweep():
    for base in [(1,), (2,), (1, 1), (1, 2), (1, 1, 1), (2, 2), (1, 1, 2)]:
        rows = stabilization_onset(base, sum(base) + 3)
        tail = [v for m, v in rows if m >= sum(base)]
        assert len(set(tail)) == 1


def test_matrix_ed_polynomial_examples():
    assert matrix_ed_polynomial([[1, 0], [0, 1]]) == [1, -2, 1]
    assert matrix_ed_polynomial([[3, 4]]) == [25, -1]
    coeffs = matrix_ed_polynomial([[1, 0], [0, 2]])
    assert coeffs[0] == 4  # det(t)^2
    assert coeffs[-1] == 1
    # transposing is handled internally
    assert matrix_ed_polynomial([[3], [4]]) == [25, -1]


def test_matrix_ed_polynomial_random_square():
    rng = random.Random(20240818)
    for _ in range(6):
        t = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
             for _ in range(3)]
        coeffs = matrix_ed_polynomial(t)
        assert len(coeffs) == 4
        assert coeffs[-1] == -1  # (-1)^3, degree 3 in eps^2
        assert coeffs[0] == det_oracle(t) ** 2


def test_matrix_ed_polynomial_random_rectangular():
    rng = random.Random(99)
    for _ in range(6):
        t = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(2)]
        coeffs = matrix_ed_polynomial(t)
        assert len(coeffs) == 3
        assert coeffs[-1] == 1  # (-1)^2
        gram = [[sum(t[i][k] * t[j][k] for k in range(4)) for j in range(2)]
                for i in range(2)]
        assert coeffs[0] == det_oracle(gram)


def test_matrix_ed_polynomial_against_sympy():
    import sympy

    rng = random.Random(4)
    for rows, cols in [(2, 2), (3, 3), (2, 3)]:
        t = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        gram = [[sum(t[i][k] * t[j][k] for k in range(cols)) for j in range(rows)]
                for i in range(rows)]
        lam = sympy.Symbol("lam")
        m = sympy.Matrix([[sympy.Rational(v) for v in row] for row in gram])
        expected = sympy.Poly((m - lam * sympy.eye(rows)).det(), lam).all_coeffs()[::-1]
        got = matrix_ed_polynomial(t)
        assert [sympy.Rational(c) for c in got] == expected


def test_matrix_ed_polynomial_degree_is_the_frobenius_ed_degree_of_its_format():
    """A general r x c matrix has min(r, c) singular values: the degree in eps^2
    is the Frobenius ED degree of P^(r-1) x P^(c-1)."""
    rng = random.Random(2024)
    for rows in range(1, 6):
        for cols in range(1, 6):
            t = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            degree = len(matrix_ed_polynomial(t)) - 1
            assert degree == frobenius_ed_degree((rows - 1, cols - 1)) == min(rows, cols)


def test_matrix_ed_polynomial_validation():
    with pytest.raises(ValueError):
        matrix_ed_polynomial([])
    with pytest.raises(ValueError):
        matrix_ed_polynomial([[1, 2], [3]])
