"""Independent oracles for the exact values: the degree-series denominator
``sum (1 - w i) e_i`` in the truncated ring, the truncated-ring and
``Fraction`` expansions that computed the degrees before the univariate
kernel in ``combinat.multinomial_fold`` (they fill all prod(n_i + 1) cells of
the d-variate ring, so keep their inputs small), the multigraded total Chern
classes that gave the Chern class degrees before ``polar`` kept one
coefficient list per factor, and the ``Fraction`` and
full-range binomial bodies of the sums behind the ``verify`` suites before
those moved onto integers: the alpha coefficients, the alternating binomial
and g identities, the evaluation of a ring element at a rational point, and
the mixed partials and minimal-point constants behind ``verify rw-constants``,
and the polar classes with one binomial per term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import List, Sequence, Tuple

from segre_degrees.asympt import MinimalPointCheck
from segre_degrees.combinat import VerificationError, binomial, multinomial
from segre_degrees.polar import ChernData
from segre_degrees.truncpoly import TruncatedPoly, elementary_symmetric, series_inverse


def degree_series_denominator(caps: Sequence[int], weight: int = 1) -> TruncatedPoly:
    """sum_{i=0}^{d} (1 - weight*i) e_i(x), truncated to the given caps."""
    caps_t = tuple(caps)
    if weight < 1:
        raise ValueError(f"weight must be positive, got {weight}")
    total = TruncatedPoly.zero(caps_t)
    for i in range(len(caps_t) + 1):
        coeff = 1 - weight * i
        if coeff:
            total = total + elementary_symmetric(caps_t, i) * coeff
    return total


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


def ring_chern_degrees(poly: TruncatedPoly, point_degree: int) -> Tuple[int, ...]:
    """Degrees deg(c_j . h^(m-j)) read off a multigraded total Chern class.

    h is the sum of all ring variables; pairing x^e against h^(m-j) leaves
    the multinomial count of the complementary exponent caps - e.
    """
    caps = poly.caps
    m = sum(caps)
    degrees = [0] * (m + 1)
    for exp, coeff in poly.terms.items():
        j = sum(exp)
        degrees[j] += coeff * multinomial(tuple(c - e for c, e in zip(caps, exp)))
    return tuple(point_degree * v for v in degrees)


def ring_chern_projective_space_product(dims: Sequence[int]) -> TruncatedPoly:
    """Total Chern class prod_i (1 + x_i)^(n_i + 1) of P^{n1} x ... x P^{nd}
    in the ring with caps (n1,...,nd); its point degree is 1."""
    dims_t = tuple(int(n) for n in dims)
    caps = dims_t
    poly = TruncatedPoly.constant(caps, 1)
    for i, n in enumerate(dims_t):
        factor = TruncatedPoly(caps, {
            tuple(k if j == i else 0 for j in range(len(caps))): binomial(n + 1, k)
            for k in range(n + 1)
        })
        poly = poly * factor
    return poly


def ring_chern_smooth_hypersurface(n: int, deg_d: int) -> TruncatedPoly:
    """Total Chern class (1+y)^(n+2) / (1 + d y) of a smooth degree-d
    hypersurface Y_n, by series inversion in the ring with cap n; its point
    degree is d."""
    numerator = TruncatedPoly((n,), {(k,): binomial(n + 2, k) for k in range(n + 1)})
    denominator = TruncatedPoly((n,), {(k,): deg_d ** k for k in range(min(n, 1) + 1)})
    return numerator * series_inverse(denominator)


def ring_chern_product(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """The Whitney product in the combined multigraded ring: the variables of
    the two factors are disjoint, so exponents concatenate."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            terms[ea + eb] = ca * cb
    return TruncatedPoly(a.caps + b.caps, terms)


def symmetric_point(d: int) -> Tuple[Fraction, ...]:
    """The point (1/(d-1), ..., 1/(d-1)) where the degree-series denominator
    vanishes; it drives the coefficient asymptotics."""
    if d < 2:
        raise ValueError(f"need at least two factors, got {d}")
    return (Fraction(1, d - 1),) * d


def symbolic_mixed_partial(d: int, indices: Sequence[int]) -> Fraction:
    """Mixed partial of H = sum (1-i) e_i at the symmetric point, by formal
    differentiation of the 2^d-term denominator in the ring."""
    p = degree_series_denominator((1,) * d)
    for i in indices:
        p = p.partial_derivative(i - 1)
    return p.evaluate(symmetric_point(d))


def fraction_mixed_partial(d: int, k: int) -> Fraction:
    """Mixed partial of H = sum (1-i) e_i in k variables at the symmetric point
    as the ``Fraction`` sum  sum_{i>=k} (1-i) C(d-k, i-k) c^(i-k),  c = 1/(d-1)."""
    c = Fraction(1, d - 1)
    return sum((1 - i) * binomial(d - k, i - k) * c ** (i - k) for i in range(k, d + 1))


def fraction_minimal_point_constants(d: int) -> MinimalPointCheck:
    """The constants of ``asympt.verify_minimal_point_constants`` as
    ``Fraction`` operations, checked against the same closed forms."""
    c = Fraction(1, d - 1)
    h_at_c = Fraction(sum(comb(d, k) * (1 - k) * (d - 1) ** (d - k) for k in range(d + 1)),
                      (d - 1) ** d)
    d_last = fraction_mixed_partial(d, 1)
    d_mixed = fraction_mixed_partial(d, 2)
    q = 1 + c * (Fraction(0) - d_mixed) / d_last
    hess = d * q ** (d - 1)
    leading = 1 / (-c * d_last) ** 2
    if (h_at_c, d_last, d_mixed, q, hess, leading) != (
            0, -Fraction(d, d - 1) ** (d - 2), -2 * Fraction(d, d - 1) ** (d - 3),
            Fraction(d - 2, d), Fraction((d - 2) ** (d - 1), d ** (d - 2)),
            Fraction((d - 1) ** (2 * d - 2), d ** (2 * d - 4))):
        raise VerificationError(f"minimal-point constants mismatch for d={d}")
    return MinimalPointCheck(d, h_at_c, d_last, q, hess, leading)


def fraction_evaluate(poly: TruncatedPoly, values: Sequence[Fraction | int]) -> Fraction:
    """Evaluation at a rational point with one ``Fraction`` per term."""
    vals = [Fraction(v) for v in values]
    if len(vals) != len(poly.caps):
        raise ValueError(f"expected {len(poly.caps)} values, got {len(vals)}")
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        term = Fraction(coeff)
        for e, v in zip(exp, vals):
            if e:
                term *= v ** e
        total += term
    return total


def binomial_alpha_coefficients(n: int, m: int, deg_d: int) -> List[int]:
    """alpha_i = d * sum_{s=i}^{n+m} (-1)^s (m+n+1-s) g_{s-i} C(m+n-s, n-s+i)
    over the full range of s, with the zero-extended binomial."""
    coeffs = []
    g = 0
    for j in range(n + m + 1):
        g = binomial(n + 2, j) - deg_d * g
        coeffs.append(g)
    alphas = []
    for i in range(m + 1):
        total = 0
        for s in range(i, n + m + 1):
            b = binomial(m + n - s, n - s + i)
            if b:
                term = (m + n + 1 - s) * coeffs[s - i] * b
                total += -term if s & 1 else term
        alphas.append(deg_d * total)
    return alphas


def binomial_polar_class(cd: ChernData, i: int) -> int:
    """delta_i = sum_{j=0}^{m-i} (-1)^j C(m+1-j, i+1) deg(c_j), one binomial
    per term: about m^3 bit operations for all i."""
    total = 0
    for j in range(cd.dim - i + 1):
        term = binomial(cd.dim + 1 - j, i + 1) * cd.class_degrees[j]
        total += -term if j & 1 else term
    return total


def binomial_alternating_sum(n: int, m: int, i: int) -> int:
    """sum_{r=i}^{n+m} (-1)^r (m+n+1-r) C(n+2, r+1-i) C(m+n-r, n-r+i) over
    the full range of r."""
    lhs = 0
    for r in range(i, n + m + 1):
        term = (m + n + 1 - r) * binomial(n + 2, r + 1 - i) * binomial(m + n - r, n - r + i)
        lhs += -term if r & 1 else term
    return lhs


def binomial_alternating_identity_holds(n: int, m: int, i: int) -> bool:
    rhs = (n + m + 2 - i) * binomial(m + n + 1 - i, n + 1)
    return binomial_alternating_sum(n, m, i) == (-rhs if i & 1 else rhs)


def fraction_g_sum(n: int, j: int) -> Fraction:
    """g(n,j) = sum_{s=0}^{n} (-1)^s (n+1-s+j)! / ((n+1-s)! (s+1)! (n-s)!)."""
    total = Fraction(0)
    for s in range(n + 1):
        term = Fraction(factorial(n + 1 - s + j),
                        factorial(n + 1 - s) * factorial(s + 1) * factorial(n - s))
        total += -term if s & 1 else term
    return total


def fraction_g_identity_holds(n: int, j: int) -> bool:
    """The value and the recurrence of g as exact rationals."""
    if fraction_g_sum(n, j) != Fraction(factorial(n + 2 + j), factorial(n + 1) * factorial(n + 2)):
        return False
    lhs = (n + 1 - j) * fraction_g_sum(n, j) + (n * n + 5 * n + 6) * fraction_g_sum(n + 1, j)
    return lhs == Fraction(2 * factorial(n + 2 + j), factorial(n + 1) ** 2)
