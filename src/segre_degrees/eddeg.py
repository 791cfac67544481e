"""Euclidean distance degrees of products of projective spaces.

Two metrics are covered.  The Frobenius ED degree of
P^{n1} x ... x P^{nd} counts singular vector tuples of a general tensor and
equals the coefficient of h1^{n1}...hd^{nd} in

    prod_i  sum_{k=0}^{n_i}  hhat_i^k * h_i^{n_i - k},    hhat_i = sum_{j != i} h_j ,

expanded in the truncated ring with caps (n1,...,nd).  The generic ED degree
(for a metric whose isotropic quadric is transversal) of the Segre-Veronese
product with weights (w1,...,wd) is the alternating sum

    sum_{j=0}^{N} (-1)^j (2^{N+1-j} - 1) (N-j)!
        sum_{i1+...+id=j} prod_l  C(n_l+1, i_l) w_l^{n_l-i_l} / (n_l-i_l)! ,

where N = sum n_l and terms with i_l > n_l vanish (reciprocal factorial of a
negative integer).  Closed forms for single Veronese factors and for products
of projective lines are provided alongside.

The product expansion is truncated after every multiplication; that is sound
because the target exponent equals the caps, and it keeps the intermediate
polynomial inside prod(n_i + 1) monomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple

from .combinat import VerificationError, binomial
from .truncpoly import TruncatedPoly

__all__ = [
    "binary_generic_ed_degree",
    "frobenius_ed_degree",
    "generic_ed_degree",
    "matrix_ed_polynomial",
    "stabilization_onset",
    "veronese_frobenius_ed_degree",
]


def frobenius_ed_degree(dims: Sequence[int]) -> int:
    """Number of singular vector tuples of a general tensor of format
    (n1+1) x ... x (nd+1); equivalently the ED degree of the Segre product
    for the Frobenius inner product.

    A single factor gives 1: a projective space has a unique critical
    rank-one approximation of a general point, namely the point itself.
    """
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


def veronese_frobenius_ed_degree(n: int, omega: int) -> int:
    """Frobenius ED degree of the degree-omega Veronese embedding of P^n:
    n+1 for omega = 2, ((omega-1)^(n+1) - 1)/(omega-2) for omega > 2."""
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if omega < 2:
        raise ValueError(f"Veronese weight must be at least 2, got {omega}")
    if omega == 2:
        return n + 1
    value, rem = divmod((omega - 1) ** (n + 1) - 1, omega - 2)
    if rem:
        raise VerificationError(f"Veronese ED degree for n={n}, omega={omega} is not an integer")
    return value


def generic_ed_degree(dims: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """Generic ED degree of the Segre-Veronese product with the given
    dimensions and weights (all weights 1 when omitted)."""
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


def binary_generic_ed_degree(d: int) -> int:
    """Generic ED degree of a product of d projective lines via the closed
    form  d! * sum_{i=0}^{d} (-2)^i / i! * (2^(d+1-i) - 1)."""
    if d < 1:
        raise ValueError(f"need at least one factor, got {d}")
    total = Fraction(0)
    for i in range(d + 1):
        total += Fraction((-2) ** i, factorial(i)) * (2 ** (d + 1 - i) - 1)
    value = total * factorial(d)
    if value.denominator != 1:
        raise VerificationError(f"binary generic ED degree for d={d} is not an integer: {value}")
    return int(value)


def stabilization_onset(base_dims: Sequence[int], m_max: int) -> List[Tuple[int, int]]:
    """Frobenius ED degrees of base x P^m for m = 0..m_max.

    The values must be constant from m = N = sum(base_dims) on; a violation
    would falsify the specialization argument behind the stabilization, so it
    is raised as a hard error rather than reported.
    """
    base = tuple(int(n) for n in base_dims)
    n_total = sum(base)
    if m_max < n_total:
        raise ValueError(f"m_max {m_max} below the stabilization threshold {n_total}")
    out = [(m, frobenius_ed_degree(base + (m,))) for m in range(m_max + 1)]
    stable = [value for m, value in out if m >= n_total]
    if any(v != stable[0] for v in stable):
        raise RuntimeError(
            f"ED degree of {base} x P^m failed to stabilize for m >= {n_total}: {out}")
    return out


def matrix_ed_polynomial(entries: Sequence[Sequence[Fraction | int]]) -> List[Fraction]:
    """Coefficients (ascending in eps^2) of det(t t^T - eps^2 I).

    The roots in eps^2 are the squared singular values of t.  The matrix is
    transposed first if it has more rows than columns, so the result has
    degree min(rows, cols) and leading coefficient (-1)^min(rows, cols).
    Uses the Faddeev-LeVerrier trace recurrence over exact rationals.
    """
    rows = [[Fraction(v) for v in row] for row in entries]
    if not rows or not rows[0]:
        raise ValueError("matrix must be non-empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    if len(rows) > len(rows[0]):
        rows = [list(col) for col in zip(*rows)]
    r, c = len(rows), len(rows[0])

    gram = [[sum(rows[i][k] * rows[j][k] for k in range(c)) for j in range(r)]
            for i in range(r)]

    # Faddeev-LeVerrier for det(lambda I - M) = lambda^r + a_{r-1} lambda^{r-1} + ... + a_0:
    #   B_1 = I, a_{r-k} = -tr(M B_k)/k, B_{k+1} = M B_k + a_{r-k} I.
    a = [Fraction(0)] * (r + 1)
    a[r] = Fraction(1)
    b = [[Fraction(i == j) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        mb = [[sum(gram[i][l] * b[l][j] for l in range(r)) for j in range(r)]
              for i in range(r)]
        a[r - k] = -sum(mb[i][i] for i in range(r)) / k
        if k < r:
            b = [[mb[i][j] + (a[r - k] if i == j else 0) for j in range(r)]
                 for i in range(r)]

    # det(M - lambda I) = (-1)^r det(lambda I - M)
    sign = -1 if r & 1 else 1
    return [sign * coeff for coeff in a]
