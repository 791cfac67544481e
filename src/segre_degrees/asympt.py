"""Floating-point growth estimates for the exact degree sequences, plus the
exact rational verification of the constants they are built from.

Every estimate is evaluated in log space and exponentiated last: the dominant
factor (d-1)^(d*n) leaves double precision near n ~ 250 already for d = 3,
while the logarithms stay small.  Relative errors against exact values are
likewise computed from log differences, so they remain finite even when the
plain estimate would overflow.

The constants feeding the main estimate (the location of the vanishing point
of the series denominator, the Hessian determinant there, and the leading
amplitude) are recomputed on integers, each rational as a reduced
(numerator, denominator) pair, the value at the point as a subset sum grouped
by subset size and the rest from O(d) mixed partials, and compared with their
closed forms; any mismatch raises, since it would invalidate the estimates.
No truncated ring is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .combinat import (Route, UsageError, VerificationError, at_least, binomial_row, fold_cost,
                       power_cost, rational)
from .eddeg import frobenius_ed_degree, veronese_frobenius_ed_degree
from .hyperdet import mixed_partial_at_symmetric_point, sv_hyperdet_degree

__all__ = [
    "BinaryAsymptotics",
    "ConvergencePoint",
    "DiscriminantRatios",
    "FORMULAS",
    "MinimalPointCheck",
    "VerificationError",
    "binary_asymptotics",
    "convergence_sweep",
    "discriminant_quotients",
    "discriminant_ratios",
    "discriminant_route",
    "log_ed_asymptotic",
    "log_hyperdet_asymptotic",
    "log_sv_hyperdet_asymptotic",
    "relative_error",
    "verify_minimal_point_constants",
]

_LOG_2PI = math.log(2.0 * math.pi)
_E2 = math.exp(2.0)


def _require_hypercube(d: int, n: int = 1, omega: int = 1) -> tuple[int, int, int]:
    """d, n and the weight omega as integers; raise unless d >= 3, n >= 1 and omega >= 1."""
    return at_least(d, 3, "d"), at_least(n, 1, "n"), at_least(omega, 1, "omega")


def log_hyperdet_asymptotic(d: int, n: int) -> float:
    """log of the large-n estimate of the hyperdeterminant degree of format
    (n+1)^d, the weight-1 case of ``log_sv_hyperdet_asymptotic``:

        (d-1)^(2d-2) / ([2 pi (d-2)]^((d-1)/2) d^((3d-6)/2)) * (d-1)^(dn) / n^((d-3)/2)
    """
    return log_sv_hyperdet_asymptotic(d, n, 1)


def log_ed_asymptotic(d: int, n: int) -> float:
    """log of the large-n estimate of the Frobenius ED degree of (P^n)^d:

        (d-1)^(d-1) / ((2 pi)^((d-1)/2) (d-2)^((3d-1)/2) d^((d-2)/2))
            * (d-1)^(d(n+1)) / (n+1)^((d-1)/2)

    The closed form is indexed by the vector space dimension n+1, not the
    projective dimension n: evaluated at n instead, its relative error
    against the exact degrees grows to 1 - (d-1)^(-d) rather than decaying
    like 1/n (checked against exact values up to n=30 for d=3 and n=10 for
    d=4).
    """
    d, n, _ = map(float, _require_hypercube(d, n))
    size = n + 1
    return ((d - 1) * math.log(d - 1)
            - (d - 1) / 2 * _LOG_2PI
            - (3 * d - 1) / 2 * math.log(d - 2)
            - (d - 2) / 2 * math.log(d)
            + d * size * math.log(d - 1)
            - (d - 1) / 2 * math.log(size))


def log_sv_hyperdet_asymptotic(d: int, n: int, omega: int) -> float:
    """log of the large-n estimate for the equal-weight Veronese variant:

        (wd-1)^(2d-2) / ([2 pi (wd-2)]^((d-1)/2) w^((4d-5)/2) d^((3d-6)/2))
            * (wd-1)^(dn) / n^((d-3)/2)
    """
    d, n, omega = _require_hypercube(d, n, omega)
    wd = omega * d  # an integer: math.log reads it at any size
    d, n = float(d), float(n)
    return ((2 * d - 2) * math.log(wd - 1)
            - (d - 1) / 2 * (_LOG_2PI + math.log(wd - 2))
            - (4 * d - 5) / 2 * math.log(omega)
            - (3 * d - 6) / 2 * math.log(d)
            + d * n * math.log(wd - 1)
            - (d - 3) / 2 * math.log(n))


# Large-d log estimates for products of d projective lines, and two ratios.
BinaryAsymptotics = namedtuple("BinaryAsymptotics", "d log_hyperdet log_ed_frobenius "
                               "log_ed_generic ratio_frobenius ratio_generic")


def binary_asymptotics(d: int) -> BinaryAsymptotics:
    """Large-d estimates for the 2 x ... x 2 degree, the Frobenius ED degree
    d! (via Stirling), and the generic ED degree:

        sqrt(2 pi) d^((2d+1)/2) (d+3) / e^(d+2)
        sqrt(2 pi) d^((2d+1)/2) / e^d
        sqrt(2 pi) d^((2d+1)/2) (2^(d+1) e - 1) / e^(d+2)

    Their ratios are identically hyperdet / ed_frobenius = (d+3)/e^2 and
    hyperdet / ed_generic = (d+3)/(2^(d+1) e - 1), since the e^(d+2) factors
    cancel.  The fields are the logarithms of the three estimates, then the
    two ratios themselves, each from its closed form: as the difference of two
    log estimates a ratio would lose the digits of the Stirling terms, which
    grow as d log d.  The generic ratio is (d+3) / (e - 2^-(d+1)) scaled by
    2^-(d+1), which ``ldexp`` applies exactly, so while it is a normal double
    it is within a few units in its last place of the closed form.
    """
    d = at_least(d, 2, "d")
    stirling = 0.5 * _LOG_2PI + (2 * d + 1) / 2 * math.log(d) - d
    # log(2^(d+1) e - 1) without forming the huge power
    x = (d + 1) * math.log(2.0) + 1.0
    log_big = x + math.log1p(-math.exp(-x))
    return BinaryAsymptotics(
        d=d,
        log_hyperdet=stirling + math.log(d + 3) - 2,
        log_ed_frobenius=stirling,
        log_ed_generic=stirling - 2 + log_big,
        ratio_frobenius=(d + 3) / _E2,
        ratio_generic=math.ldexp((d + 3) / (math.e - 2.0 ** -(d + 1)), -(d + 1)),
    )


# Exact degree ratios for the degree-omega hypersurface dual of the Veronese
# P^n, each normalized by its limiting form, so each tends to 1 in its regime:
# fixed_omega_ratio = [N / ED_F] / [((w-2)/(w-1)) n] as n -> inf,
# fixed_n_ratio = [N / ED_F] / (n+1) as w -> inf, and
# gen_ratio = [N / ED_gen] / [(n+1)/(2^(n+1)-1)] as w -> inf.
DiscriminantRatios = namedtuple("DiscriminantRatios",
                                "n omega fixed_omega_ratio fixed_n_ratio gen_ratio")


def discriminant_quotients(n: int, omega: int) -> tuple[tuple[int, int], ...]:
    """The three ratios of ``discriminant_ratios`` as exact (numerator,
    denominator) pairs of positive integers, in the order of its fields."""
    n, omega = at_least(n, 1, "n"), at_least(omega, 3, "omega")
    exact = (n + 1) * (omega - 1) ** n
    ed_f = veronese_frobenius_ed_degree(n, omega)
    ed_gen = ((2 * omega - 1) ** (n + 1) - (omega - 1) ** (n + 1)) // omega
    return ((exact * (omega - 1), ed_f * (omega - 2) * n),
            (exact, ed_f * (n + 1)),
            (exact * (2 ** (n + 1) - 1), ed_gen * (n + 1)))


def discriminant_route(n: int, omega: int) -> Route:
    """The way to ``discriminant_quotients``: ``discriminant-closed-form`` builds
    (2 omega - 1)^(n+1), the largest power of the three ratios, and holds about its size."""
    n, omega = at_least(n, 1, "n"), at_least(omega, 3, "omega")
    return Route("discriminant-closed-form", power_cost(2 * omega - 1, n + 1),
                 lambda: discriminant_quotients(n, omega))


def discriminant_ratios(n: int, omega: int) -> DiscriminantRatios:
    """Compare N(n; w) = (n+1)(w-1)^n against both ED degrees of the
    degree-w Veronese embedding of P^n."""
    # one true division of integers each: correctly rounded, like float(Fraction)
    quotients = discriminant_quotients(n, omega)
    return DiscriminantRatios(n, omega, *(num / den for num, den in quotients))


# Exact values of the constants at the symmetric vanishing point
# c = (1/(d-1), ..., 1/(d-1)) of the degree-series denominator:
# denominator_at_point = 0, last_partial = -(d/(d-1))^(d-2) (non-zero, so the
# point is smooth), q = (d-2)/d, hessian_det = (d-2)^(d-1) / d^(d-2) and
# leading_constant = (d-1)^(2d-2) / d^(2d-4), each a reduced integer pair
# (numerator, denominator) with a positive denominator.
MinimalPointCheck = namedtuple(
    "MinimalPointCheck", "d denominator_at_point last_partial q hessian_det leading_constant")


def _subset_term(d: int, size: int) -> int:
    """The term of one subset S, |S| = size, in H(c) (d-1)^d: the coefficient
    1 - |S| of the monomial x^S of H times (d-1)^d c^|S| = (d-1)^(d-|S|)."""
    return (1 - size) * (d - 1) ** (d - size)


def _q(d: int, d_last: tuple[int, int], d_mixed: tuple[int, int]) -> tuple[int, int]:
    """q = 1 - c d_mixed / d_last at c = 1/(d-1), which is (N_1 - N_2) / N_1
    for the scaled partials N_k of ``mixed_partial_at_symmetric_point``."""
    (a, b), (a2, b2) = d_last, d_mixed
    return rational((d - 1) * a * b2 - a2 * b, (d - 1) * a * b2)


def _hessian_det(d: int, q: tuple[int, int]) -> tuple[int, int]:
    """d q^(d-1); q is reduced, so its powers are too."""
    return rational(d * q[0] ** (d - 1), q[1] ** (d - 1))


def _leading_constant(d: int, d_last: tuple[int, int]) -> tuple[int, int]:
    """1 / (c d_last)^2 at c = 1/(d-1)."""
    a, b = d_last
    return rational(((d - 1) * b) ** 2, a ** 2)


def _rational_str(value: tuple[int, int]) -> str:
    """The pair as ``str(Fraction(*value))`` prints it."""
    p, q = rational(*value)
    return str(p) if q == 1 else f"{p}/{q}"


def _check(name: str, d: int, value: tuple[int, int], num: int, den: int) -> None:
    """Raise unless the pair ``value`` equals num / den, by cross-multiplication."""
    if value[0] * den != num * value[1]:
        raise VerificationError(f"{name} mismatch for d={d}: {_rational_str(value)}")


def verify_minimal_point_constants(d: int) -> MinimalPointCheck:
    """Recompute, on integers, every constant the degree estimate uses, and
    compare with the closed forms; raise on any mismatch.

    The amplitude is G(c) / (c_d dH(c))^2 with G identically 1 (the series
    is exactly an inverse square, with trivial numerator).

    H(c) is the sum over all 2^d subsets S of {1..d} of the terms of the
    denominator, added on integers over the common denominator (d-1)^d.  A
    term depends only on |S|, so the sum is grouped by size: C(d, k) subsets
    of size k, d + 1 terms.  It is a separate route from the partials, which
    are O(d) sums at c.  The remaining constants are reduced integer pairs
    built from the two partials, and each check cross-multiplies a pair with
    its closed form.  No ``Fraction`` is built.
    """
    d, _, _ = _require_hypercube(d)
    h_at_c = rational(sum(c * _subset_term(d, k) for k, c in enumerate(binomial_row(d))),
                      (d - 1) ** d)
    if h_at_c != (0, 1):
        raise VerificationError(f"denominator does not vanish at the symmetric point for d={d}")

    d_last = mixed_partial_at_symmetric_point(d, 1)
    _check("last partial", d, d_last, -d ** (d - 2), (d - 1) ** (d - 2))

    d_mixed = mixed_partial_at_symmetric_point(d, 2)
    _check("mixed partial", d, d_mixed, -2 * d ** (d - 3), (d - 1) ** (d - 3))

    q = _q(d, d_last, d_mixed)
    _check("q", d, q, d - 2, d)

    hess = _hessian_det(d, q)
    _check("Hessian determinant", d, hess, (d - 2) ** (d - 1), d ** (d - 2))

    leading = _leading_constant(d, d_last)
    _check("leading constant", d, leading, (d - 1) ** (2 * d - 2), d ** (2 * d - 4))

    return MinimalPointCheck(
        d=d,
        denominator_at_point=h_at_c,
        last_partial=d_last,
        q=q,
        hessian_det=hess,
        leading_constant=leading,
    )


def relative_error(exact: int, log_estimate: float) -> float:
    """|exact - estimate| / exact computed from the log of the estimate, so
    it stays finite even when the estimate itself overflows a double."""
    exact = at_least(exact, 1, "exact")
    return abs(1.0 - math.exp(log_estimate - math.log(exact)))


# One grid point of a sweep; exact and rel_error are None when the sweep does
# not compare.
ConvergencePoint = namedtuple("ConvergencePoint", "grid_value exact log_estimate rel_error")


# formula -> (route(d, n, omega), log_estimate(d, n, omega)) on the hypercubical format
# (n+1)^d.  A route names and charges what ``hyperdet.route`` or ``eddeg.route`` give for
# (n,) * d after reading d, n and omega, charging one factor d times, so no tuple of length
# d is built before its call.  Each entry looks its functions up when called, so a tracer
# or test double sees every call.
def _sv_route(d: int, n: int, omega: int) -> Route:
    d, n, omega = _require_hypercube(d, n, omega)
    return Route("segre-fold", fold_cost((n,), (1,), omega, copies=d),
                 lambda: sv_hyperdet_degree((n,) * d, omega))


def _ed_route(d: int, n: int, omega: int) -> Route:
    d, n, omega = _require_hypercube(d, n, omega)
    return Route("frobenius-fold", fold_cost((n,), (1,), 1, copies=d),
                 lambda: frobenius_ed_degree((n,) * d))


_SV = (_sv_route, lambda d, n, omega: log_sv_hyperdet_asymptotic(d, n, omega))
FORMULAS = {"hyperdet": _SV, "ed": (_ed_route, lambda d, n, omega: log_ed_asymptotic(d, n)),
            "sv": _SV}


def convergence_sweep(formula: str, d: int, grid: Sequence[int], omega: int = 1,
                      compare: bool = True) -> tuple[ConvergencePoint, ...]:
    """Estimates over a grid of n for fixed d >= 3 on the hypercubical format
    (n+1)^d, and with ``compare`` the exact values and relative errors.

    formula: "hyperdet" or "sv", one pair whose omega = 1 case is the
    hyperdeterminant, with equal Veronese weight omega; or "ed".  The estimate
    reads n before the exact value is computed; for d and n up to the largest
    double it raises nothing, as an overflow gives ``inf`` or ``nan``.
    """
    if formula not in FORMULAS:
        raise UsageError(f"unknown formula {formula!r}")
    route, log_estimate_fn = FORMULAS[formula]
    points = []
    for n in grid:
        log_est = log_estimate_fn(d, n, omega)
        exact = route(d, n, omega).call() if compare else None
        rel_error = relative_error(exact, log_est) if compare else None
        points.append(ConvergencePoint(n, exact, log_est, rel_error))
    return tuple(points)
