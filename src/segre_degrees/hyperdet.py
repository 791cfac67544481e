"""Exact degrees of dual varieties of products of projective spaces.

When the dual variety of P^{n1} x ... x P^{nd} (Segre embedded) is a
hypersurface, its defining polynomial is the hyperdeterminant of format
(n1+1) x ... x (nd+1), and the degree of that hypersurface is the
coefficient of x1^{n1}...xd^{nd} in the power series expansion of

    [ sum_{i=0}^{d} (1 - i) e_i(x1,...,xd) ]^(-2) ,

with e_i the i-th elementary symmetric polynomial.  When every factor is
re-embedded by the same degree-w Veronese map, the weight enters as
(1 - w*i).  Writing the bracket as P (1 - w S) with P = prod (1 + x_j) and
S = sum x_j / (1 + x_j) and expanding (1 - w S)^(-2) turns the coefficient
into  (-1)^N sum_k (|k| + 1) (-w)^|k| multinomial(k) prod_j C(n_j+1, k_j+1)
for N = sum n_j, as prod_j (-1)^(n_j-k_j) = (-1)^N (-1)^|k|: a readout at -w of
``combinat.segre_fold``, the fold the generic ED degree reads, grouped by |k|
in O(d N^2) integer operations.  The d-variate expansion of the series in the
truncated ring is a test oracle (``tests/ring_oracle.py``); nothing here
builds a ring.  A defective format (dual not a hypersurface) yields 0; at unit
weight ``is_dual_nondefective`` (the GKZ criterion) gives it with no fold.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from operator import index

from .combinat import (Route, UsageError, as_format, at_least, binomial_row, fold_cost, horner,
                       rational, segre_fold)

__all__ = [
    "binary_hyperdet_degree",
    "hyperdet_degree",
    "is_dual_nondefective",
    "mixed_partial_at_symmetric_point",
    "partition_formats",
    "route",
    "sv_hyperdet_degree",
]


def is_dual_nondefective(dims: Sequence[int]) -> bool:
    """True iff the dual of the Segre product is a hypersurface.

    Criterion: max n_j <= sum of the other n_i.  For a single factor this
    reads n1 <= 0, so only the point P^0 passes.
    """
    dims = as_format(dims)
    return max(dims) * 2 <= sum(dims)


def sv_hyperdet_degree(dims: Sequence[int], weight: int = 1) -> int:
    """Degree of the dual hypersurface of a product of degree-``weight``
    Veronese re-embeddings of projective spaces (equal weight on every
    factor); 0 when the dual has higher codimension."""
    dims_t, weight = as_format(dims), at_least(weight, 1, "weight")
    if weight == 1 and not is_dual_nondefective(dims_t):
        return 0
    g = segre_fold(dims_t, (1,) * len(dims_t))
    return (-1) ** sum(dims_t) * horner([(s + 1) * g_s for s, g_s in enumerate(g)], -weight)


def route(dims: Sequence[int], weight: int = 1) -> Route:
    """The way of ``sv_hyperdet_degree``: ``defective``, 0 at unit weight by the GKZ criterion,
    holds nothing; ``segre-fold`` folds at unit weights and reads the fold at ``-weight``."""
    dims_t, weight = as_format(dims), at_least(weight, 1, "weight")
    if weight == 1 and not is_dual_nondefective(dims_t):
        return Route("defective", None, lambda: sv_hyperdet_degree(dims_t, weight))
    return Route("segre-fold", fold_cost(dims_t, (1,) * len(dims_t), weight),
                 lambda: sv_hyperdet_degree(dims_t, weight))


def hyperdet_degree(dims: Sequence[int]) -> int:
    """Degree of the hyperdeterminant of format (n1+1) x ... x (nd+1).

    Returns 0 for dual-defective formats (matrix formats k1 != k2, or one
    factor strictly larger than the rest combined).
    """
    return sv_hyperdet_degree(dims, 1)


def binary_hyperdet_degree(d: int) -> int:
    """Degree of the hyperdeterminant of format 2 x 2 x ... x 2 (d factors)
    via the closed form  d! * sum_{i=0}^{d} (-2)^i / i! * (d - i + 1),
    summed on integers as  sum_i (-2)^i perm(d, d-i) (d - i + 1)  by Horner's
    rule in -2 from i = d down, with perm(d, d-i) = d!/i! as a running product.

    No package code calls it: it is the independent closed-form route that
    the tests and ``perfbench/pin.py`` check ``hyperdet_degree`` against.
    """
    d = at_least(d, 1, "d")
    total, falling = 0, 1  # falling = d!/i!
    for i in range(d, -1, -1):
        total = -2 * total + falling * (d - i + 1)
        falling *= i
    return total


def mixed_partial_at_symmetric_point(d: int, k: int) -> tuple[int, int]:
    """Mixed partial of H = sum (1-i) e_i in k distinct variables at the
    symmetric vanishing point, as a reduced pair (numerator, denominator).

    By symmetry only k matters, 1 <= k <= d.  Differentiating e_i in k distinct
    variables leaves e_{i-k} of the other d - k, so at c = 1/(d-1) the partial
    is  sum_{i>=k} (1-i) C(d-k, i-k) c^(i-k).  Scaled by (d-1)^(d-k) it is the
    integer  N_k = sum_{i>=k} (1-i) C(d-k, i-k) (d-1)^(d-i), read by
    ``combinat.horner`` in d - 1; the pair's denominator is positive.  Callers
    can check it against the closed form -k * (d/(d-1))^(d-k-1).
    """
    d, k = at_least(d, 2, "d"), index(k)
    if not 1 <= k <= d:
        raise UsageError(f"need 1 <= k <= {d} differentiated variables, got {k}")
    m = d - k  # p = d - i turns N_k into sum_p (p + 1 - d) C(m, p) (d-1)^p
    terms = [(p + 1 - d) * b for p, b in enumerate(binomial_row(m))]
    return rational(horner(terms, d - 1), (d - 1) ** m)


def partition_formats(max_total: int) -> Iterator[tuple[int, ...]]:
    """All non-decreasing tuples of positive n_i with sum <= max_total.

    One representative per permutation class; the degree computations here
    are symmetric in the factors, so sweeps over these cover all formats.
    """
    def rec(remaining: int, smallest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if prefix:
            yield prefix
        for n in range(smallest, remaining + 1):
            yield from rec(remaining - n, n, prefix + (n,))

    yield from rec(max_total, 1, ())
