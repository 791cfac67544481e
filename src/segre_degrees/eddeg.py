"""Euclidean distance degrees of products of projective spaces.

Two metrics are covered.  The Frobenius ED degree of
P^{n1} x ... x P^{nd} counts singular vector tuples of a general tensor and
equals the coefficient of h1^{n1}...hd^{nd} in

    prod_i  sum_{k=0}^{n_i}  hhat_i^k * h_i^{n_i - k},    hhat_i = sum_{j != i} h_j ,

which is also the coefficient of x^n in 1 / (prod_j (1 - x_j) * H) with
H = sum_i (1 - i) e_i(x) (Friedland-Ottaviani; the rational generating
function of Ekhad-Zeilberger).  The generic ED degree (for a metric whose
isotropic quadric is transversal) of the Segre-Veronese product with weights
(w1,...,wd) is the alternating sum

    sum_{j=0}^{N} (-1)^j (2^{N+1-j} - 1) (N-j)!
        sum_{i1+...+id=j} prod_l  C(n_l+1, i_l) w_l^{n_l-i_l} / (n_l-i_l)! ,

where N = sum n_l and terms with i_l > n_l vanish (reciprocal factorial of a
negative integer).  Both are readouts of ``combinat.multinomial_fold`` with
per-factor coefficient lists, O(d N^2) integer operations.  Closed forms for
single Veronese factors and for products of projective lines are provided
alongside.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import perm
from operator import index

from .combinat import VerificationError, as_format, binomial, multinomial_fold

TYPE_CHECKING = False  # true only to type checkers, which know the name
if TYPE_CHECKING:  # annotations only; each function that builds a Fraction imports it
    from fractions import Fraction

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
    return sum(multinomial_fold(_frobenius_factor(n) for n in as_format(dims)))


def _frobenius_factor(n: int) -> list[int]:
    """a(k) = sum_{r <= n-k} (-1)^r C(k+r, r) for k = 0..n: the coefficient of
    x^(n-k) in (1 - x)^(-1) (1 + x)^(-(k+1)), one factor's part of
    1 / (prod (1 - x_j) H) once 1/H = 1 / (P (1 - S)) is expanded in powers of
    S.  Pascal's rule gives 2 a(k) = a(k-1) + (-1)^(n-k) C(n+1, k)."""
    a = [1 - n % 2]
    for k in range(1, n + 1):
        a.append((a[-1] + (-1) ** (n - k) * binomial(n + 1, k)) // 2)
    return a


def veronese_frobenius_ed_degree(n: int, omega: int) -> int:
    """Frobenius ED degree of the degree-omega Veronese embedding of P^n:
    n+1 for omega = 2, ((omega-1)^(n+1) - 1)/(omega-2) for omega > 2."""
    n, omega = index(n), index(omega)
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if omega < 2:
        raise ValueError(f"Veronese weight must be at least 2, got {omega}")
    if omega == 2:
        return n + 1
    # (omega-1)^(n+1) = 1 (mod omega-2), so the division is exact
    return ((omega - 1) ** (n + 1) - 1) // (omega - 2)


def generic_ed_degree(dims: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """Generic ED degree of the Segre-Veronese product with the given
    dimensions and weights (all weights 1 when omitted)."""
    dims_t = as_format(dims)
    weights_t = tuple(map(index, weights)) if weights is not None else (1,) * len(dims_t)
    if len(weights_t) != len(dims_t):
        raise ValueError("weights must match the number of factors")
    if any(w < 1 for w in weights_t):
        raise ValueError(f"weights must be positive, got {weights_t}")

    # k_l = n_l - i_l and s = N - j turn (N-j)! / prod (n_l-i_l)! into multinomial(k)
    n_total = sum(dims_t)
    g = multinomial_fold([binomial(n + 1, n - k) * w ** k for k in range(n + 1)]
                         for n, w in zip(dims_t, weights_t))
    return sum((-1) ** (n_total - s) * (2 ** (s + 1) - 1) * g_s for s, g_s in enumerate(g))


def binary_generic_ed_degree(d: int) -> int:
    """Generic ED degree of a product of d projective lines via the closed
    form  d! * sum_{i=0}^{d} (-2)^i / i! * (2^(d+1-i) - 1), summed on
    integers as  sum_i (-2)^i perm(d, d-i) (2^(d+1-i) - 1).

    No package code calls it: it is the independent closed-form route that
    the tests and ``perfbench/pin.py`` check ``generic_ed_degree`` against.
    """
    if d < 1:
        raise ValueError(f"need at least one factor, got {d}")
    return sum((-2) ** i * perm(d, d - i) * (2 ** (d + 1 - i) - 1) for i in range(d + 1))


def stabilization_onset(base_dims: Sequence[int], m_max: int) -> list[tuple[int, int]]:
    """Frobenius ED degrees of base x P^m for m = 0..m_max.

    The values must be constant from m = N = sum(base_dims) on; a violation
    would falsify the specialization argument behind the stabilization, so it
    is raised as a ``VerificationError`` rather than reported.
    """
    base = as_format(base_dims)
    n_total = sum(base)
    if m_max < n_total:
        raise ValueError(f"m_max {m_max} below the stabilization threshold {n_total}")
    out = [(m, frobenius_ed_degree(base + (m,))) for m in range(m_max + 1)]
    stable = [value for m, value in out if m >= n_total]
    if any(v != stable[0] for v in stable):
        raise VerificationError(
            f"ED degree of {base} x P^m failed to stabilize for m >= {n_total}: {out}")
    return out


def matrix_ed_polynomial(entries: Sequence[Sequence[Fraction | int]]) -> list[Fraction]:
    """Coefficients (ascending in eps^2) of det(t t^T - eps^2 I).

    The roots in eps^2 are the squared singular values of t.  The matrix is
    transposed first if it has more rows than columns, so the result has
    degree min(rows, cols) and leading coefficient (-1)^min(rows, cols).
    Uses the Faddeev-LeVerrier trace recurrence over exact rationals.
    """
    from fractions import Fraction

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
