"""Independent oracles for the exact degrees: the truncated-ring and
``Fraction`` expansions that computed them before the univariate kernel in
``combinat.multinomial_fold``.  They fill all prod(n_i + 1) cells of the
d-variate ring, so keep their inputs small.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple

from segre_degrees.combinat import VerificationError, binomial
from segre_degrees.hyperdet import degree_series_denominator, symmetric_point
from segre_degrees.truncpoly import TruncatedPoly, series_inverse


def series_inverse_square(h: TruncatedPoly) -> TruncatedPoly:
    """Truncated expansion of 1/h^2 for h with constant term 1.

    Inverts h*h directly (h is typically much sparser than the result), so a
    single graded convolution suffices.
    """
    if h.constant_term != 1:
        raise ValueError("series inverse requires constant term 1")
    return series_inverse(h * h)


def ring_sv_hyperdet_degree(dims: Sequence[int], weight: int = 1) -> int:
    """Coefficient of x^dims in [sum_i (1 - weight*i) e_i]^(-2), expanded in
    the truncated ring with caps equal to dims."""
    dims_t = tuple(int(n) for n in dims)
    if not dims_t or any(n < 0 for n in dims_t):
        raise ValueError(f"invalid dimensions {dims_t}")
    if weight < 1:
        raise ValueError(f"weight must be positive, got {weight}")
    h = degree_series_denominator(dims_t, weight)
    return series_inverse_square(h).coefficient(dims_t)


def ring_frobenius_ed_degree(dims: Sequence[int]) -> int:
    """Coefficient of h^dims in prod_i sum_k hhat_i^k h_i^(n_i-k), expanded in
    the truncated ring with caps (n1,...,nd)."""
    dims_t = tuple(int(n) for n in dims)
    if not dims_t or any(n < 0 for n in dims_t):
        raise ValueError(f"invalid dimensions {dims_t}")
    caps = dims_t
    d = len(caps)
    prod = TruncatedPoly.constant(caps, 1)
    for i, n in enumerate(dims_t):
        hhat = TruncatedPoly.zero(caps)
        for j in range(d):
            if j != i and caps[j] >= 1:
                hhat = hhat + TruncatedPoly.variable(caps, j)
        factor = TruncatedPoly.zero(caps)
        power = TruncatedPoly.constant(caps, 1)  # hhat^k
        for k in range(n + 1):
            exp = [0] * d
            exp[i] = n - k
            factor = factor + power * TruncatedPoly.monomial(caps, exp)
            if k < n:
                power = power * hhat
        prod = prod * factor
    return prod.coefficient(caps)


def fraction_generic_ed_degree(dims: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """The alternating sum
        sum_j (-1)^j (2^(N+1-j) - 1) (N-j)!
            sum_{i1+...+id=j} prod_l C(n_l+1, i_l) w_l^(n_l-i_l) / (n_l-i_l)!
    over exact rationals."""
    dims_t = tuple(int(n) for n in dims)
    if not dims_t or any(n < 0 for n in dims_t):
        raise ValueError(f"invalid dimensions {dims_t}")
    weights_t = tuple(int(w) for w in weights) if weights is not None else (1,) * len(dims_t)
    if len(weights_t) != len(dims_t):
        raise ValueError("weights must match the number of factors")
    if any(w < 1 for w in weights_t):
        raise ValueError(f"weights must be positive, got {weights_t}")

    n_total = sum(dims_t)
    # inner[j] = sum over compositions i1+...+id = j, 0 <= i_l <= n_l, of
    # prod_l C(n_l+1, i_l) w_l^(n_l - i_l) / (n_l - i_l)!
    inner: List[Fraction] = [Fraction(0)] * (n_total + 1)
    partial: List[Tuple[int, Fraction]] = [(0, Fraction(1))]
    for n_l, w_l in zip(dims_t, weights_t):
        nxt: dict[int, Fraction] = {}
        for j, val in partial:
            for i_l in range(n_l + 1):
                term = val * binomial(n_l + 1, i_l) * w_l ** (n_l - i_l)
                term /= factorial(n_l - i_l)
                key = j + i_l
                nxt[key] = nxt.get(key, Fraction(0)) + term
        partial = sorted(nxt.items())
    for j, val in partial:
        inner[j] = val

    total = Fraction(0)
    for j in range(n_total + 1):
        if inner[j]:
            sign = -1 if j & 1 else 1
            total += sign * (2 ** (n_total + 1 - j) - 1) * factorial(n_total - j) * inner[j]
    if total.denominator != 1:
        raise VerificationError(f"generic ED degree of {dims_t} with weights {weights_t} "
                                f"is not an integer: {total}")
    return int(total)


def symbolic_mixed_partial(d: int, indices: Sequence[int]) -> Fraction:
    """Mixed partial of H = sum (1-i) e_i at the symmetric point, by formal
    differentiation of the 2^d-term denominator in the ring."""
    p = degree_series_denominator((1,) * d)
    for i in indices:
        p = p.partial_derivative(i - 1)
    return p.evaluate(symmetric_point(d))
