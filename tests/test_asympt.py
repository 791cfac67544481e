"""Estimate evaluators: algebraic reductions, exact constants, convergence."""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest

from segre_degrees import asympt, eddeg, hyperdet
from segre_degrees import polar
from segre_degrees.asympt import (
    VerificationError,
    binary_asymptotics,
    convergence_sweep,
    discriminant_ratios,
    log_ed_asymptotic,
    log_hyperdet_asymptotic,
    log_sv_hyperdet_asymptotic,
    relative_error,
    verify_minimal_point_constants,
)
from segre_degrees.combinat import rational
from segre_degrees.hyperdet import binary_hyperdet_degree

from ring_oracle import fraction_minimal_point_constants

RATIONAL_FIELDS = ("denominator_at_point", "last_partial", "q", "hessian_det", "leading_constant")


def as_fractions(chk):
    """The rational fields of a ``MinimalPointCheck`` as ``Fraction``s, after
    checking that each is a reduced pair with a positive denominator."""
    out = {}
    for field in RATIONAL_FIELDS:
        num, den = getattr(chk, field)
        assert den > 0 and gcd(num, den) == 1, (chk.d, field)
        out[field] = Fraction(num, den)
    return out


def test_three_factor_reduction():
    # d=3 collapses to 8^(n+1) / (3 sqrt(3) pi)
    for n in range(1, 31):
        expected = 8.0 ** (n + 1) / (3 * math.sqrt(3) * math.pi)
        assert math.exp(log_hyperdet_asymptotic(3, n)) == pytest.approx(expected, rel=1e-12)
    assert math.exp(log_hyperdet_asymptotic(3, 2)) == pytest.approx(31.36, abs=0.01)


def test_four_factor_reduction():
    # d=4 collapses to 3^6/(2^9 pi sqrt(pi)) * 81^n / sqrt(n)
    for n in (1, 2, 5, 10):
        expected = 3 ** 6 / (2 ** 9 * math.pi ** 1.5) * 81.0 ** n / math.sqrt(n)
        assert math.exp(log_hyperdet_asymptotic(4, n)) == pytest.approx(expected, rel=1e-12)


def test_ed_reduction_and_requirements():
    # d=3 collapses to 2/(sqrt(3) pi) * 8^(n+1)/(n+1); the closed form is a
    # function of the vector space dimension n+1
    for n in (1, 4, 10):
        expected = 2 / (math.sqrt(3) * math.pi) * 8.0 ** (n + 1) / (n + 1)
        assert math.exp(log_ed_asymptotic(3, n)) == pytest.approx(expected, rel=1e-12)
    assert math.exp(log_ed_asymptotic(3, 4)) == pytest.approx(2408.79, abs=0.01)
    with pytest.raises(ValueError):
        log_ed_asymptotic(2, 5)
    with pytest.raises(ValueError):
        log_hyperdet_asymptotic(2, 5)
    with pytest.raises(ValueError):
        log_hyperdet_asymptotic(3, 0)


def test_sv_reduces_to_unit_weight():
    for d in (3, 4, 6, 8):
        for n in (1, 5, 20):
            assert math.exp(log_sv_hyperdet_asymptotic(d, n, 1)) == \
                pytest.approx(math.exp(log_hyperdet_asymptotic(d, n)), rel=1e-12)
    # spot value with w*d - 1 = 5, frozen from direct evaluation
    direct = 5 ** 4 / ((2 * math.pi * 4) ** 1 * 2 ** 3.5 * 3 ** 1.5) * 5 ** 3
    assert math.exp(log_sv_hyperdet_asymptotic(3, 1, 2)) == pytest.approx(direct, rel=1e-12)


def test_binary_ratios():
    for d in (2, 5, 8, 20):
        est = binary_asymptotics(d)
        assert math.exp(est.log_hyperdet - est.log_ed_frobenius) == \
            pytest.approx((d + 3) / math.e ** 2, rel=1e-12)
        # the e^(d+2) factors cancel between the two estimates; the exact
        # integer ratio N/ED_gen matches this to 7 digits by d=12
        expected = (d + 3) / (2.0 ** (d + 1) * math.e - 1)
        assert math.exp(est.log_hyperdet - est.log_ed_generic) == \
            pytest.approx(expected, rel=1e-12)
        # the Frobenius estimate is Stirling's approximation of d!
        assert math.exp(est.log_ed_frobenius) == pytest.approx(
            math.sqrt(2 * math.pi) * d ** (d + 0.5) / math.e ** d, rel=1e-12)
    with pytest.raises(ValueError):
        binary_asymptotics(1)


def test_binary_ratio_fields_are_their_closed_forms():
    """Each ratio is within a relative 1e-12 of its closed form while it is a
    normal float, and within 1e-12 of the smallest normal float below that
    (the generic ratio from d = 1030 on; it is 0 from d = 1083 on).  Up to
    d = 1029 the generic ratio's 12 significant digits, as the command line
    prints them, are the closed form's, correctly rounded."""
    floor = Decimal(sys.float_info.min) * Decimal("1e-12")
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(1).exp()
        for d in [*range(2, 1100), 10 ** 5, 10 ** 20, 10 ** 300]:
            est = binary_asymptotics(d)
            # the generic ratio is below 1e-330 from d = 1100 on
            generic = (d + 3) / (2 ** Decimal(d + 1) * e - 1) if d < 1100 else Decimal(0)
            for ratio, exact in ((est.ratio_frobenius, (d + 3) / e ** 2),
                                 (est.ratio_generic, generic)):
                assert abs(Decimal(ratio) - exact) <= max(exact * Decimal("1e-12"), floor), d
            assert (est.ratio_generic == 0) == (d >= 1083)
            if d <= 1029:
                assert f"{est.ratio_generic:.12g}" == f"{float(f'{generic:.12g}'):.12g}", d


def test_log_domain_stays_finite():
    for d in range(3, 9):
        for n in (1, 50, 200):
            assert math.isfinite(log_hyperdet_asymptotic(d, n))
            assert math.isfinite(log_ed_asymptotic(d, n))
            assert math.isfinite(log_sv_hyperdet_asymptotic(d, n, 3))
    assert math.isfinite(binary_asymptotics(200).log_ed_generic)


def test_relative_error_survives_huge_values():
    # 2^1000 against log(2)*1000: far beyond double range, still exact-ish
    err = relative_error(2 ** 1000, 1000 * math.log(2.0))
    assert err == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        relative_error(0, 1.0)


def test_relative_error_is_inf_only_where_the_ratio_leaves_double_range():
    # e^709 is below the largest double, e^710 above it
    assert relative_error(1, 709.0) == pytest.approx(math.exp(709.0) - 1.0)
    assert relative_error(1, 800.0) == math.inf
    assert relative_error(1, math.inf) == math.inf
    # the same excess over a huge exact value: the ratio, not the estimate, decides
    assert math.isfinite(relative_error(2 ** 2000, 2000 * math.log(2.0) + 709.0))


def test_minimal_point_constants_closed_forms():
    chk = as_fractions(verify_minimal_point_constants(3))
    assert chk["denominator_at_point"] == 0
    assert chk["q"] == Fraction(1, 3)
    assert chk["hessian_det"] == Fraction(1, 3)
    assert chk["leading_constant"] == Fraction(16, 9)
    assert chk["last_partial"] == Fraction(-3, 2)
    for d in range(3, 11):
        chk = as_fractions(verify_minimal_point_constants(d))
        assert chk["q"] == Fraction(d - 2, d)
        assert chk["hessian_det"] == Fraction((d - 2) ** (d - 1), d ** (d - 2))
        assert chk["leading_constant"] == Fraction((d - 1) ** (2 * d - 2), d ** (2 * d - 4))
        assert chk["last_partial"] == -Fraction(d, d - 1) ** (d - 2)
    with pytest.raises(ValueError):
        verify_minimal_point_constants(2)


def test_minimal_point_constants_match_the_fraction_oracle():
    for d in range(3, 81):
        chk = verify_minimal_point_constants(d)
        oracle = fraction_minimal_point_constants(d)
        assert chk.d == oracle.d == d
        assert as_fractions(chk) == {field: getattr(oracle, field) for field in RATIONAL_FIELDS}


def test_failure_messages_print_pairs_as_fractions():
    for num in range(-13, 14):
        for den in (*range(-7, 0), *range(1, 8), 3 ** 40):
            assert asympt._rational_str((num, den)) == str(Fraction(num, den)), (num, den)
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def _strictly_decreasing(errors):
    return all(b < a for a, b in zip(errors, errors[1:]))


def test_convergence_sweeps_decrease():
    # the error term is of order 1/n, so relative errors fall along the grid
    for formula, d, grid, omega in (("hyperdet", 3, (5, 10, 20), 1), ("ed", 3, (5, 10, 20), 1),
                                    ("sv", 3, (2, 4, 8), 2)):
        points = convergence_sweep(formula, d, grid, omega=omega)
        assert [p.grid_value for p in points] == list(grid)
        assert _strictly_decreasing([p.rel_error for p in points])
        estimates = convergence_sweep(formula, d, grid, omega=omega, compare=False)
        assert estimates == tuple(p._replace(exact=None, rel_error=None) for p in points)
    # products of d lines: the binary estimate against the closed form
    assert _strictly_decreasing([relative_error(binary_hyperdet_degree(d),
                                                binary_asymptotics(d).log_hyperdet)
                                 for d in (4, 8, 12)])
    with pytest.raises(ValueError):
        convergence_sweep("nope", 3, (1, 2))


# (d, n) pairs where the Richardson value of exact / estimate is checked; each also reads 2n
RICHARDSON_GRID = [(3, 20), (4, 15), (5, 10)]
SV_EXPONENT_XFAIL = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 15: the sv estimate is omega^((d-2)/2) too small, so "
                        "exact / estimate tends to that, not to 1")


def _richardson(formula, d, n, omega):
    """2 r(2n) - r(n) for r(n) = exact / estimate on (n+1)^d: it cancels the 1/n term of r, so
    a right leading constant leaves |R - 1| of order 1/n^2 and a wrong one leaves its factor."""
    route, log_estimate_fn = asympt.FORMULAS[formula]

    def ratio(m):
        return math.exp(math.log(route(d, m, omega).call()) - log_estimate_fn(d, m, omega))

    return 2 * ratio(2 * n) - ratio(n)


@pytest.mark.parametrize("formula, omega", [
    ("hyperdet", 1), ("ed", 1), ("sv", 1),
    *(pytest.param("sv", omega, marks=SV_EXPONENT_XFAIL) for omega in (2, 3, 5)),
])
@pytest.mark.parametrize("d, n", RICHARDSON_GRID)
def test_each_estimate_has_the_right_constant(formula, omega, d, n):
    """A wrong constant or a wrong power of omega in an estimate moves R away from 1 by a
    fixed factor; at these n the largest n^2 |R - 1| of a right estimate is 11.1 (ed, d = 3)."""
    assert n * n * abs(_richardson(formula, d, n, omega) - 1) <= 40


def test_discriminant_ratios_trend_to_one():
    # fixed omega = 3, growing n: ratio over ((w-2)/(w-1)) n tends to 1
    values = [discriminant_ratios(n, 3).fixed_omega_ratio for n in (4, 16, 64, 256)]
    for a, b in zip(values, values[1:]):
        assert abs(b - 1) < abs(a - 1)
    # fixed n = 2, growing omega: ratio over (n+1) tends to 1
    values = [discriminant_ratios(2, w).fixed_n_ratio for w in (4, 16, 64, 256)]
    for a, b in zip(values, values[1:]):
        assert abs(b - 1) < abs(a - 1)
    values = [discriminant_ratios(2, w).gen_ratio for w in (4, 16, 64, 256)]
    for a, b in zip(values, values[1:]):
        assert abs(b - 1) < abs(a - 1)
    with pytest.raises(ValueError):
        discriminant_ratios(2, 2)


def test_verification_error_is_raised_on_mismatch(monkeypatch):
    # sabotage one partial to prove the checks are live
    def broken(d, k):
        return (1, 1)

    monkeypatch.setattr(hyperdet, "mixed_partial_at_symmetric_point", broken)
    with pytest.raises(VerificationError, match="^last partial mismatch for d=4: 1$"):
        verify_minimal_point_constants(4)


@pytest.mark.parametrize("formula, exact_name, log_name", [
    ("hyperdet", "sv_hyperdet_degree", "log_sv_hyperdet_asymptotic"),
    ("ed", "frobenius_ed_degree", "log_ed_asymptotic"),
    ("sv", "sv_hyperdet_degree", "log_sv_hyperdet_asymptotic"),
])
def test_formula_table_looks_functions_up_when_called(monkeypatch, formula, exact_name, log_name):
    # a tracer or test double replaces module attributes; the table must see it
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        return lambda *args: calls.append(name) or real(*args)

    # the exact degree is read from the module that defines it
    owner = {"sv_hyperdet_degree": hyperdet, "frobenius_ed_degree": eddeg}[exact_name]
    monkeypatch.setattr(owner, exact_name, spy(owner, exact_name))
    monkeypatch.setattr(asympt, log_name, spy(asympt, log_name))
    convergence_sweep(formula, 3, (2, 3), omega=2)
    assert calls == [log_name, exact_name] * 2


def test_the_hyperdet_formula_is_the_sv_pair():
    # the hyperdeterminant is the omega = 1 case; the CLI passes omega = 1
    assert list(asympt.FORMULAS) == ["hyperdet", "ed", "sv"]
    assert asympt.FORMULAS["hyperdet"] is asympt.FORMULAS["sv"]
    assert not hasattr(asympt, "hyperdet_degree")


@pytest.mark.parametrize("d", range(3, 7))
def test_formula_routes_are_the_format_routes(d):
    """Each route of ``FORMULAS`` restates the charge of the format route of (n,) * d, as one
    factor taken d times; it must name, charge and compute what that route does."""
    for n in range(1, 9):
        dims = (n,) * d
        for omega in (1, 2, 3):
            pairs = [(asympt.FORMULAS["sv"][0](d, n, omega), hyperdet.route(dims, omega))]
            if omega == 1:
                pairs.append((asympt.FORMULAS["ed"][0](d, n, omega),
                              eddeg.route(dims, (1,) * d, False)))
            for route, format_route in pairs:
                assert (route.name, route.peak) == (format_route.name, format_route.peak)
                assert route.call() == format_route.call()


def test_hypercube_arguments_are_checked_alike():
    # the estimates and the minimal-point constants raise the same messages
    estimates = (log_ed_asymptotic, log_hyperdet_asymptotic,
                 lambda d, n: log_sv_hyperdet_asymptotic(d, n, 2))
    for check in (*estimates, lambda d, n: verify_minimal_point_constants(d)):
        with pytest.raises(ValueError, match="^d must be at least 3, got 2$"):
            check(2, 5)
    for estimate in estimates:
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            estimate(3, 0)


@pytest.mark.parametrize("make, fields", [
    pytest.param(lambda: binary_asymptotics(5),
                 "d log_hyperdet log_ed_frobenius log_ed_generic ratio_frobenius ratio_generic",
                 id="BinaryAsymptotics"),
    pytest.param(lambda: discriminant_ratios(2, 3),
                 "n omega fixed_omega_ratio fixed_n_ratio gen_ratio", id="DiscriminantRatios"),
    pytest.param(lambda: verify_minimal_point_constants(3),
                 "d denominator_at_point last_partial q hessian_det leading_constant",
                 id="MinimalPointCheck"),
    pytest.param(lambda: convergence_sweep("hyperdet", 3, (2, 3))[0],
                 "grid_value exact log_estimate rel_error", id="ConvergencePoint"),
    pytest.param(lambda: polar.chern_data_projective_space_product((1, 1)),
                 "dim class_degrees", id="ChernData"),
    pytest.param(lambda: polar.dual_profile(polar.chern_data_projective_space_product((1,))),
                 "deltas dual_codim", id="PolarProfile"),
    pytest.param(lambda: hyperdet.route((1, 1, 1)), "name peak call", id="Route"),
])
def test_result_types_refuse_assignment(request, make, fields):
    """Every result record is immutable: no field can be rebound and no
    attribute added.  The listed fields are all the type has, so a stale list
    fails here rather than inside ``pytest.raises``."""
    result = make()
    assert type(result).__name__ == request.node.callspec.id
    assert tuple(fields.split()) == type(result)._fields
    for field in fields.split():
        with pytest.raises(AttributeError):
            setattr(result, field, getattr(result, field))
    with pytest.raises(AttributeError):
        result.extra = 1
