"""Floating-point growth estimates for the exact degree sequences, plus the
exact rational verification of the constants they are built from.

Every estimate is evaluated in log space and exponentiated last: the dominant
factor (d-1)^(d*n) leaves double precision near n ~ 250 already for d = 3,
while the logarithms stay small.  Relative errors against exact values are
likewise computed from log differences, so they remain finite even when the
plain estimate would overflow.

The constants feeding the main estimate (the location of the vanishing point
of the series denominator, the Hessian determinant there, and the leading
amplitude) are recomputed on integers and exact rationals, the value at the
point as a subset sum grouped by subset size and the rest from O(d) mixed
partials, and compared with their closed forms; any mismatch raises, since it
would invalidate the estimates.  No truncated ring is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence, Tuple

from .combinat import VerificationError
from .eddeg import frobenius_ed_degree, veronese_frobenius_ed_degree
from .hyperdet import (
    binary_hyperdet_degree,
    hyperdet_degree,
    mixed_partial_at_symmetric_point,
    sv_hyperdet_degree,
    symmetric_point,
)

__all__ = [
    "BinaryAsymptotics",
    "ConvergencePoint",
    "ConvergenceReport",
    "DiscriminantRatios",
    "FORMULAS",
    "MinimalPointCheck",
    "VerificationError",
    "binary_asymptotics",
    "convergence_sweep",
    "discriminant_ratios",
    "log_ed_asymptotic",
    "log_hyperdet_asymptotic",
    "log_sv_hyperdet_asymptotic",
    "relative_error",
    "verify_minimal_point_constants",
]

_LOG_2PI = math.log(2.0 * math.pi)


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
    if d < 3:
        raise ValueError(f"the estimate requires at least three factors, got d={d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
    if d < 3:
        raise ValueError(f"the estimate requires at least three factors, got d={d}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 1:
        raise ValueError(f"weight must be positive, got {omega}")
    wd = omega * d
    return ((2 * d - 2) * math.log(wd - 1)
            - (d - 1) / 2 * (_LOG_2PI + math.log(wd - 2))
            - (4 * d - 5) / 2 * math.log(omega)
            - (3 * d - 6) / 2 * math.log(d)
            + d * n * math.log(wd - 1)
            - (d - 3) / 2 * math.log(n))


# Large-d log estimates for products of d projective lines.
BinaryAsymptotics = namedtuple("BinaryAsymptotics",
                               "d log_hyperdet log_ed_frobenius log_ed_generic")


def binary_asymptotics(d: int) -> BinaryAsymptotics:
    """Large-d estimates for the 2 x ... x 2 degree, the Frobenius ED degree
    d! (via Stirling), and the generic ED degree:

        sqrt(2 pi) d^((2d+1)/2) (d+3) / e^(d+2)
        sqrt(2 pi) d^((2d+1)/2) / e^d
        sqrt(2 pi) d^((2d+1)/2) (2^(d+1) e - 1) / e^(d+2)

    Their ratios are identically hyperdet / ed_frobenius = (d+3)/e^2 and
    hyperdet / ed_generic = (d+3)/(2^(d+1) e - 1), since the e^(d+2) factors
    cancel.  The fields are logarithms of the three estimates.
    """
    if d < 2:
        raise ValueError(f"need at least two factors, got {d}")
    stirling = 0.5 * _LOG_2PI + (2 * d + 1) / 2 * math.log(d) - d
    # log(2^(d+1) e - 1) without forming the huge power
    x = (d + 1) * math.log(2.0) + 1.0
    log_big = x + math.log1p(-math.exp(-x))
    return BinaryAsymptotics(
        d=d,
        log_hyperdet=stirling + math.log(d + 3) - 2,
        log_ed_frobenius=stirling,
        log_ed_generic=stirling - 2 + log_big,
    )


# Exact degree ratios for the degree-omega hypersurface dual of the Veronese
# P^n, each normalized by its limiting form, so each tends to 1 in its regime:
# fixed_omega_ratio = [N / ED_F] / [((w-2)/(w-1)) n] as n -> inf,
# fixed_n_ratio = [N / ED_F] / (n+1) as w -> inf, and
# gen_ratio = [N / ED_gen] / [(n+1)/(2^(n+1)-1)] as w -> inf.
DiscriminantRatios = namedtuple("DiscriminantRatios",
                                "n omega fixed_omega_ratio fixed_n_ratio gen_ratio")


def discriminant_ratios(n: int, omega: int) -> DiscriminantRatios:
    """Compare N(n; w) = (n+1)(w-1)^n against both ED degrees of the
    degree-w Veronese embedding of P^n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if omega < 3:
        raise ValueError(f"need omega >= 3, got {omega}")
    exact = (n + 1) * (omega - 1) ** n
    ed_f = veronese_frobenius_ed_degree(n, omega)
    ed_gen = ((2 * omega - 1) ** (n + 1) - (omega - 1) ** (n + 1)) // omega
    # one true division of integers each: correctly rounded, like float(Fraction)
    return DiscriminantRatios(
        n=n,
        omega=omega,
        fixed_omega_ratio=exact * (omega - 1) / (ed_f * (omega - 2) * n),
        fixed_n_ratio=exact / (ed_f * (n + 1)),
        gen_ratio=exact * (2 ** (n + 1) - 1) / (ed_gen * (n + 1)),
    )


# Exact values of the constants at the symmetric vanishing point
# c = (1/(d-1), ..., 1/(d-1)) of the degree-series denominator:
# denominator_at_point = 0, last_partial = -(d/(d-1))^(d-2) (non-zero, so the
# point is smooth), q = (d-2)/d, hessian_det = (d-2)^(d-1) / d^(d-2) and
# leading_constant = (d-1)^(2d-2) / d^(2d-4), all ``Fraction``s.
MinimalPointCheck = namedtuple(
    "MinimalPointCheck", "d denominator_at_point last_partial q hessian_det leading_constant")


def _subset_term(d: int, size: int) -> int:
    """The term of one subset S, |S| = size, in H(c) (d-1)^d: the coefficient
    1 - |S| of the monomial x^S of H times (d-1)^d c^|S| = (d-1)^(d-|S|)."""
    return (1 - size) * (d - 1) ** (d - size)


def verify_minimal_point_constants(d: int) -> MinimalPointCheck:
    """Recompute, over exact rationals, every constant the degree estimate
    uses, and compare with the closed forms; raise on any mismatch.

    The amplitude is G(c) / (c_d dH(c))^2 with G identically 1 (the series
    is exactly an inverse square, with trivial numerator).

    H(c) is the sum over all 2^d subsets S of {1..d} of the terms of the
    denominator, added on integers over the common denominator (d-1)^d.  A
    term depends only on |S|, so the sum is grouped by size: C(d, k) subsets
    of size k, d + 1 terms.  It is a separate route from the partials, which
    are O(d) sums at c.  The remaining constants are a few ``Fraction``
    operations.
    """
    from fractions import Fraction

    if d < 3:
        raise ValueError(f"the estimate requires at least three factors, got d={d}")
    point = symmetric_point(d)
    c1 = point[0]

    h_at_c = Fraction(sum(math.comb(d, k) * _subset_term(d, k) for k in range(d + 1)),
                      (d - 1) ** d)
    if h_at_c != 0:
        raise VerificationError(f"denominator does not vanish at the symmetric point for d={d}")

    d_last = mixed_partial_at_symmetric_point(d, (d,))
    if d_last != -Fraction(d, d - 1) ** (d - 2):
        raise VerificationError(f"last partial mismatch for d={d}: {d_last}")

    d_mixed = mixed_partial_at_symmetric_point(d, (1, d))
    if d_mixed != -2 * Fraction(d, d - 1) ** (d - 3):
        raise VerificationError(f"mixed partial mismatch for d={d}: {d_mixed}")

    q = 1 + c1 * (Fraction(0) - d_mixed) / d_last
    if q != Fraction(d - 2, d):
        raise VerificationError(f"q mismatch for d={d}: {q}")

    hess = d * q ** (d - 1)
    if hess != Fraction((d - 2) ** (d - 1), d ** (d - 2)):
        raise VerificationError(f"Hessian determinant mismatch for d={d}: {hess}")

    leading = 1 / (-point[-1] * d_last) ** 2
    if leading != Fraction((d - 1) ** (2 * d - 2), d ** (2 * d - 4)):
        raise VerificationError(f"leading constant mismatch for d={d}: {leading}")

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
    if exact <= 0:
        raise ValueError(f"need a positive exact value, got {exact}")
    return abs(1.0 - math.exp(log_estimate - math.log(exact)))


# One grid point of a sweep; grid_value is n for the fixed-d sweeps and d for
# the binary sweep.
ConvergencePoint = namedtuple("ConvergencePoint", "grid_value exact log_estimate rel_error")


class ConvergenceReport(namedtuple("ConvergenceReport", "formula d points")):
    """Exact-versus-estimate record over a grid.

    ``strictly_decreasing`` is the trend acceptance check (the error term is
    of order 1/n, so relative errors must fall along an increasing grid);
    ``error_times_grid`` records rel_error * grid for the boundedness of that
    1/n error term.
    """

    __slots__ = ()

    @property
    def error_times_grid(self) -> Tuple[float, ...]:
        return tuple(p.rel_error * p.grid_value for p in self.points)

    @property
    def strictly_decreasing(self) -> bool:
        errs = [p.rel_error for p in self.points]
        return all(b < a for a, b in zip(errs, errs[1:]))


# formula -> (exact_fn(dims, omega), log_estimate_fn(d, n, omega)) on the
# hypercubical format (n+1)^d.  Each entry looks its functions up when called,
# so a caller that replaces a module attribute (a tracer, a test double) sees
# every call.
FORMULAS = {
    "hyperdet": (lambda dims, omega: hyperdet_degree(dims),
                 lambda d, n, omega: log_hyperdet_asymptotic(d, n)),
    "ed": (lambda dims, omega: frobenius_ed_degree(dims),
           lambda d, n, omega: log_ed_asymptotic(d, n)),
    "sv": (lambda dims, omega: sv_hyperdet_degree(dims, omega),
           lambda d, n, omega: log_sv_hyperdet_asymptotic(d, n, omega)),
}


def convergence_sweep(formula: str, d: int, grid: Sequence[int], omega: int = 1) -> ConvergenceReport:
    """Exact values against estimates over a grid.

    formula: "hyperdet" and "ed" sweep n for fixed d >= 3 on the hypercubical
    format (n+1)^d; "sv" does the same with equal Veronese weight omega;
    "binary" sweeps d itself (the d argument is ignored) on 2 x ... x 2.
    """
    if formula == "binary":
        triples = [(dd, binary_hyperdet_degree(dd), binary_asymptotics(dd).log_hyperdet)
                   for dd in grid]
    elif formula in FORMULAS:
        exact_fn, log_estimate_fn = FORMULAS[formula]
        triples = [(n, exact_fn((n,) * d, omega), log_estimate_fn(d, n, omega)) for n in grid]
    else:
        raise ValueError(f"unknown formula {formula!r}")
    points = tuple(ConvergencePoint(g, exact, log_est, relative_error(exact, log_est))
                   for g, exact, log_est in triples)
    return ConvergenceReport(formula=formula, d=d, points=points)
