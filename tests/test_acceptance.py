"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or check captured output on failure).

Every exact assertion is equality of arbitrary-precision integers or
rationals; the only tolerances appear in the convergence criterion, which is
trend-based by design.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd

from segre_degrees.asympt import (
    binary_asymptotics,
    convergence_sweep,
    relative_error,
    verify_minimal_point_constants,
)
from segre_degrees.cli import main
from segre_degrees.eddeg import (
    binary_generic_ed_degree,
    frobenius_ed_degree,
    generic_ed_degree,
    matrix_ed_polynomial,
    stabilization_onset,
)
from segre_degrees.hyperdet import (
    binary_hyperdet_degree,
    hyperdet_degree,
    is_dual_nondefective,
    mixed_partial_at_symmetric_point,
    partition_formats,
)
from segre_degrees.polar import (
    alpha_coefficients,
    alternating_binomial_identity_holds,
    chern_data_product,
    chern_data_projective_space_product,
    chern_data_smooth_hypersurface,
    delta0_product_with_hypersurface,
    dual_profile,
    f_identity_holds,
    g_identity_holds,
)

from ring_oracle import degree_series_denominator, symmetric_point

TABLE2 = {
    (1, 1): [2, 6, 8, 8, 8, 8],
    (1, 2): [2, 8, 15, 18, 18, 18],
    (2, 2): [3, 15, 37, 55, 61, 61],
    (2, 3): [3, 18, 55, 104, 138, 148],
}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def test_criterion_01_hyperdet_basics():
    with criterion(1, "hyperdeterminant degrees"):
        queries = [((1, 1, 1), 4), ((1, 1, 2), 6)]
        queries += [((k, k), k + 1) for k in range(1, 11)]
        for dims, expected in queries:
            start = time.perf_counter()
            assert hyperdet_degree(dims) == expected
            assert time.perf_counter() - start < 1.0


def test_criterion_02_ed_degree_table():
    with criterion(2, "ED degree table rows"):
        start = time.perf_counter()
        for base, expected in TABLE2.items():
            assert [v for _, v in stabilization_onset(base, 5)] == expected
        assert time.perf_counter() - start < 10.0


def test_criterion_03_ed_stabilization():
    with criterion(3, "ED stabilization onset"):
        for base in partition_formats(7):
            n_total = sum(base)
            values = [frobenius_ed_degree(base + (m,))
                      for m in range(n_total, n_total + 4)]
            assert len(set(values)) == 1, (base, values)


def test_criterion_04_factorial_and_binary_laws():
    with criterion(4, "d! law and binary closed form"):
        for d in range(1, 8):
            assert frobenius_ed_degree((1,) * d) == factorial(d)
        for d in range(2, 10):
            assert binary_hyperdet_degree(d) == hyperdet_degree((1,) * d)


def test_criterion_05_generic_ed_closed_forms():
    with criterion(5, "generic ED closed forms"):
        for n in range(1, 21):
            assert generic_ed_degree((1, n)) == 4 * n + 2
        for n in range(9):
            for omega in range(1, 6):
                expected, rem = divmod(
                    (2 * omega - 1) ** (n + 1) - (omega - 1) ** (n + 1), omega)
                assert rem == 0
                assert generic_ed_degree((n,), (omega,)) == expected


def test_criterion_06_quadric_product_dual_degrees():
    with criterion(6, "dual degrees of (P1xP1) x Q_n"):
        base = chern_data_projective_space_product((1, 1))
        expected = [4, 12, 24, 24, 24, 24]
        for n, want in enumerate(expected):
            via_alpha = delta0_product_with_hypersurface(base, n, 2)
            product = chern_data_product(base, chern_data_smooth_hypersurface(n, 2))
            via_product = dual_profile(product).deltas[0]
            assert via_alpha == via_product == want


def test_criterion_07_dual_degree_cross_oracle():
    with criterion(7, "dual degree cross-oracle"):
        for dims in partition_formats(7):
            series = hyperdet_degree(dims)
            polar = dual_profile(chern_data_projective_space_product(dims)).deltas[0]
            assert series == polar, dims
            if not is_dual_nondefective(dims):
                assert series == 0, dims
            else:
                assert series > 0, dims


def test_criterion_08_identity_suites():
    with criterion(8, "binomial identities and alpha ratios"):
        start = time.perf_counter()
        for n in range(31):
            for m in range(n + 1):
                for i in range(m + 1):
                    assert alternating_binomial_identity_holds(n, m, i)
                assert f_identity_holds(n, m)
            for j in range(1, n + 1):
                assert g_identity_holds(n, j)
        for d in range(2, 6):
            for m in range(31):
                prev = alpha_coefficients(m, m, d)
                for n in range(m, 30):
                    cur = alpha_coefficients(n + 1, m, d)
                    assert cur == [(d - 1) * a for a in prev], (n, m, d)
                    prev = cur
        assert time.perf_counter() - start < 30.0


def _reduced(pair):
    num, den = pair
    assert den > 0 and gcd(num, den) == 1, pair
    return Fraction(num, den)


def test_criterion_09_minimal_point_constants():
    with criterion(9, "exact minimal-point constants"):
        for d in range(3, 11):
            chk = verify_minimal_point_constants(d)
            assert _reduced(chk.denominator_at_point) == 0
            assert _reduced(chk.last_partial) == -Fraction(d, d - 1) ** (d - 2)
            assert _reduced(chk.q) == Fraction(d - 2, d)
            assert _reduced(chk.hessian_det) == Fraction((d - 2) ** (d - 1), d ** (d - 2))
            assert _reduced(chk.leading_constant) == Fraction((d - 1) ** (2 * d - 2),
                                                              d ** (2 * d - 4))
            h = degree_series_denominator((1,) * d)
            assert h.evaluate(symmetric_point(d)) == 0
            for k in range(1, d + 1):
                expected = -k * Fraction(d, d - 1) ** (d - k - 1)
                assert _reduced(mixed_partial_at_symmetric_point(d, k)) == expected


def test_criterion_10_convergence_trends():
    with criterion(10, "estimate convergence trends"):
        start = time.perf_counter()
        for formula in ("hyperdet", "ed"):
            errors = [p.rel_error for p in convergence_sweep(formula, 3, (5, 10, 20))]
            assert errors[2] < errors[1] < errors[0]
        errors = [relative_error(binary_hyperdet_degree(d), binary_asymptotics(d).log_hyperdet)
                  for d in (4, 8, 12)]
        assert errors[2] < errors[1] < errors[0]
        assert time.perf_counter() - start < 60.0


def test_criterion_11_matrix_ed_polynomial():
    with criterion(11, "matrix ED polynomial"):
        rng = random.Random(1234)

        def det(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = Fraction(0)
            for j in range(len(rows)):
                if rows[0][j]:
                    minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                    term = rows[0][j] * det(minor)
                    total += -term if j & 1 else term
            return total

        for _ in range(5):
            t = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
                 for _ in range(3)]
            coeffs = matrix_ed_polynomial(t)
            assert len(coeffs) == 4  # degree 3 in eps^2
            assert coeffs[0] == det(t) ** 2
        for _ in range(5):
            t = [[Fraction(rng.randint(-9, 9)) for _ in range(4)] for _ in range(2)]
            coeffs = matrix_ed_polynomial(t)
            gram = [[sum(t[i][k] * t[j][k] for k in range(4)) for j in range(2)]
                    for i in range(2)]
            assert coeffs[0] == det(gram)


def test_cli_table_matches_criterion_2_bit_exactly(capsys):
    with criterion(2, "ED degree table via the CLI, bit-exact"):
        assert main(["table", "table2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        expected_lines = ["X,m=0,m=1,m=2,m=3,m=4,m=5"]
        labels = {base: "x".join(f"P{n}" for n in base) for base in TABLE2}
        for base in ((1, 1), (1, 2), (2, 2), (2, 3)):
            expected_lines.append(
                labels[base] + "," + ",".join(map(str, TABLE2[base])))
        assert out == "\n".join(expected_lines) + "\n"
