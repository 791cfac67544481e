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
negative integer).  Both are readouts of ``combinat.multinomial_fold`` (the second
through ``combinat.segre_fold``), O(d N^2) integer operations.  Closed forms for
single Veronese factors and for products of projective lines are provided
alongside; ``route`` names the way a degree takes and what it holds at its peak.
"""

from collections.abc import Sequence
from math import perm
from operator import index

from . import hyperdet
from .combinat import (Route, UsageError, VerificationError, as_format, at_least, binomial_row,
                       fold_cost, horner, multinomial_fold, power_cost, segre_fold, show_int)

TYPE_CHECKING = False  # true only to type checkers, which know the name
if TYPE_CHECKING:  # annotations only; each function that builds a Fraction imports it
    from fractions import Fraction

__all__ = [
    "binary_generic_ed_degree",
    "frobenius_ed_degree",
    "generic_ed_degree",
    "matrix_ed_polynomial",
    "route",
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
    row = binomial_row(n + 1)
    a = [1 - n % 2]
    for k in range(1, n + 1):
        a.append((a[-1] + (-1) ** (n - k) * row[k]) // 2)
    return a


def veronese_frobenius_ed_degree(n: int, omega: int) -> int:
    """Frobenius ED degree of the degree-omega Veronese embedding of P^n:
    n+1 for omega = 2, ((omega-1)^(n+1) - 1)/(omega-2) for omega > 2."""
    n, omega = at_least(n, 0, "n"), at_least(omega, 2, "omega")
    if omega == 2:
        return n + 1
    # (omega-1)^(n+1) = 1 (mod omega-2), so the division is exact
    return ((omega - 1) ** (n + 1) - 1) // (omega - 2)


def _format_and_weights(dims: Sequence[int], weights: Sequence[int] | None) -> tuple:
    """``as_format(dims)`` and one weight per factor, each at least 1 (all 1 for None)."""
    dims_t = as_format(dims)
    weights_t = (1,) * len(dims_t) if weights is None else tuple(map(index, weights))
    if len(weights_t) != len(dims_t):
        raise UsageError("weights must match the number of factors")
    at_least(min(weights_t), 1, "each weight")
    return dims_t, weights_t


def generic_ed_degree(dims: Sequence[int], weights: Sequence[int] | None = None) -> int:
    """Generic ED degree of the Segre-Veronese product with the given
    dimensions and weights (all weights 1 when omitted)."""
    dims_t, weights_t = _format_and_weights(dims, weights)
    # k_l = n_l - i_l, s = N - j turn (N-j)!/prod (n_l-i_l)! into multinomial(k), C(n_l+1, i_l)
    # into C(n_l+1, k_l+1), and sum_s (-1)^(N-s) (2^(s+1)-1) g_s into (-1)^N (2 g(-2) - g(-1))
    g = segre_fold(dims_t, weights_t)
    return (-1) ** sum(dims_t) * (2 * horner(g, -2) - horner(g, -1))


def route(dims: Sequence[int], weights: Sequence[int], generic: bool) -> Route:
    """The way to an ED degree: ``segre-fold`` (generic metric), ``frobenius-fold`` (Frobenius,
    unit weights), ``veronese-closed-form`` (Frobenius, one factor of weight >= 2), or, where
    d >= 2 unit-weight factors make a dual defective format (one exceeds the sum N of the
    others), ``frobenius-boundary``: the fold with that factor lowered to N, where the degree
    stabilizes (``stabilization_onset``).  The arguments are read before any cost model runs."""
    dims_t, weights_t = _format_and_weights(dims, weights)
    if generic:
        return Route("segre-fold", fold_cost(dims_t, weights_t, 2),
                     lambda: generic_ed_degree(dims_t, weights_t))
    if weights_t == (1,) * len(dims_t):
        if len(dims_t) >= 2 and not hyperdet.is_dual_nondefective(dims_t):
            top = max(dims_t)
            at = dims_t.index(top)
            boundary = (*dims_t[:at], sum(dims_t) - top, *dims_t[at + 1:])
            return Route("frobenius-boundary", fold_cost(boundary, weights_t, 1),
                         lambda: frobenius_ed_degree(boundary))
        return Route("frobenius-fold", fold_cost(dims_t, weights_t, 1),
                     lambda: frobenius_ed_degree(dims_t))
    if len(dims_t) == len(weights_t) == 1:
        return Route("veronese-closed-form", power_cost(weights_t[0] - 1, dims_t[0] + 1),
                     lambda: veronese_frobenius_ed_degree(dims_t[0], weights_t[0]))
    # two or more factors reach here, so this is each tuple's repr with show_int's integers
    weights_s, dims_s = (f"({', '.join(map(show_int, t))})" for t in (weights_t, dims_t))
    raise UsageError(f"no Frobenius ED degree route for weights {weights_s} on {dims_s}: "
                     "non-unit weights need a single factor or the generic metric")


def binary_generic_ed_degree(d: int) -> int:
    """Generic ED degree of a product of d projective lines via the closed
    form  d! * sum_{i=0}^{d} (-2)^i / i! * (2^(d+1-i) - 1), summed on
    integers as  sum_i (-2)^i perm(d, d-i) (2^(d+1-i) - 1).

    No package code calls it: it is the independent closed-form route that
    the tests and ``perfbench/pin.py`` check ``generic_ed_degree`` against.
    A d past ``sys.maxsize`` raises ``math.perm``'s ``OverflowError``: no memory holds d!.
    """
    d = at_least(d, 1, "d")
    return sum((-2) ** i * perm(d, d - i) * (2 ** (d + 1 - i) - 1) for i in range(d + 1))


def stabilization_onset(base_dims: Sequence[int], m_max: int) -> list[tuple[int, int]]:
    """Frobenius ED degrees of base x P^m for m = 0..m_max, each P^m folded onto the base's fold.

    The values must be constant from m = N = sum(base_dims) on; a violation
    would falsify the specialization argument behind the stabilization, so it
    is raised as a ``VerificationError`` rather than reported.
    """
    base = as_format(base_dims)
    n_total = sum(base)
    m_max = at_least(m_max, n_total, "m_max")
    g = multinomial_fold(_frobenius_factor(n) for n in base)
    out = [(m, sum(multinomial_fold((g, _frobenius_factor(m))))) for m in range(m_max + 1)]
    stable = [value for m, value in out if m >= n_total]
    if any(v != stable[0] for v in stable):
        raise VerificationError(
            f"ED degree of {base} x P^m failed to stabilize for m >= {n_total}: {out}")
    return out


def matrix_ed_polynomial(entries: "Sequence[Sequence[Fraction | int]]") -> "list[Fraction]":
    """Coefficients (ascending in eps^2) of det(t t^T - eps^2 I).

    The roots in eps^2 are the squared singular values of t.  The matrix is transposed first if
    it has more rows than columns, so the result has degree min(rows, cols) and leading
    coefficient (-1)^min(rows, cols), by Faddeev-LeVerrier's trace recurrence over ``Fraction``
    entries: one it cannot read (text, nan, inf) raises its ``ValueError`` or ``OverflowError``.
    """
    from fractions import Fraction

    rows = [[Fraction(v) for v in row] for row in entries]
    if not rows or not rows[0]:
        raise UsageError("matrix must be non-empty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise UsageError("matrix rows must all have the same length")
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
