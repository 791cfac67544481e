"""Polar classes, dual degrees, and the binomial identities behind the
stabilization of dual degrees of products with quadrics.

For a projective variety Y of dimension m, the polar classes are

    delta_i(Y) = sum_{j=0}^{m-i} (-1)^j C(m+1-j, i+1) deg(c_j(Y)) ,

with c_j the Chern classes of the tangent bundle (Chern-Mather classes when Y
is singular; they coincide on smooth varieties).  codim(Y^dual) - 1 is the
least i with delta_i != 0, and delta_0 is deg(Y^dual) whenever the dual is a
hypersurface.

``ChernData`` records the degrees deg(c_0),...,deg(c_m).  Degrees alone do
not determine the Chern data of a Segre product, so the type optionally
carries the total Chern class as a tensor product of factors: one list of
coefficients c_0..c_{n_i} per factor, in that factor's own hyperplane class,
together with the degree of the top monomial class.  Pairing a monomial with
a power of h = sum of the factor classes leaves a multinomial, so the class
degrees are one ``combinat.multinomial_fold`` of the reversed lists, and a
Segre product concatenates the factors; ``chern_data_product`` raises without
them.  The multigraded-ring route they replaced is a test oracle in
``tests/ring_oracle.py``.  The shortcut that needs only degrees is the
product with a smooth hypersurface Y_n in P^{n+1} of degree d:

    delta_0(X x Y_n) = sum_i alpha_i(n, m, d) * deg(c_i(X)) ,

where alpha_i is an explicit alternating binomial sum (see
``alpha_coefficients``) satisfying alpha_i(n+1, m, d) = (d-1) alpha_i(n, m, d)
for n >= m.  That ratio, and the binomial identities proving it, are checked
case by case by the ``*_identity_holds`` functions, and exhaustively by
``identity_sweep`` and ``stabilization_ratio_check``.

Those checks sum their defining series term by term on Python integers: the
alpha and alternating sums run only over the terms that can be non-zero, and
the g sum is scaled by (n+1)! (n+2)! so that every term is an integer.  No
sum is replaced by its closed form, which would make the check a tautology.
The two sweeps sum each distinct series once and hand it to every case that
reads it: the alpha and alternating sums depend on m and i only through
m - i + 1, so each row n holds one dot per value of it (per d for alpha), and
the f and g values of row n+1 serve both the recurrences of row n and the
checks of row n+1.  Each distinct comparison is made once, and a failed one
is reported for every case that reads it, while the case count still counts
every case.  A sweep holds two rows at a time, never a table over all n.  The
``Fraction`` bodies the integer sums replaced are kept as test oracles in
``tests/ring_oracle.py``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import cycle, repeat
from math import comb, factorial, perm
from operator import index, mul

from .combinat import as_format, binomial, multinomial_fold

__all__ = [
    "ChernData",
    "PolarProfile",
    "alpha_coefficients",
    "alternating_binomial_identity_holds",
    "chern_data_product",
    "chern_data_projective_space_product",
    "chern_data_smooth_hypersurface",
    "delta0_product_with_hypersurface",
    "dual_profile",
    "f_identity_holds",
    "f_sum",
    "g_identity_holds",
    "identity_sweep",
    "polar_class",
    "stabilization_ratio_check",
]


class ChernData(namedtuple("ChernData", "dim class_degrees factors point_degree")):
    """Degrees of the (Chern-Mather) classes of an embedded variety.

    ``class_degrees[j]`` is deg(c_j . h^(m-j)) for the hyperplane class h;
    in particular class_degrees[0] is the degree of the variety.  When the
    total Chern class is known as a product over factors, ``factors`` holds
    one tuple c_0..c_{n_i} per factor, the coefficients of
    c(X_i) = sum_k c_k x_i^k in that factor's hyperplane class x_i, and
    ``point_degree`` is the degree of the top monomial class
    x1^n1...xk^nk as a zero-cycle (1 for products of projective spaces, d for
    a degree-d hypersurface); products need both.
    """

    __slots__ = ()

    def __new__(cls, dim: int, class_degrees: Sequence[int],
                factors: tuple[tuple[int, ...], ...] = (), point_degree: int = 1) -> ChernData:
        degrees = tuple(map(index, class_degrees))
        if dim < 0:
            raise ValueError(f"dimension must be non-negative, got {dim}")
        if len(degrees) != dim + 1:
            raise ValueError(
                f"need {dim + 1} class degrees for dimension {dim}, got {len(degrees)}")
        if degrees[0] < 1:
            raise ValueError(f"the variety degree must be positive, got {degrees[0]}")
        if point_degree < 1:
            raise ValueError(f"point degree must be positive, got {point_degree}")
        if factors and sum(len(c) - 1 for c in factors) != dim:
            raise ValueError(f"Chern factors of lengths {[len(c) for c in factors]} do not "
                             f"span dimension {dim}")
        return super().__new__(cls, dim, degrees, factors, point_degree)


# All polar classes delta_0..delta_m of a variety plus the codimension of its
# dual that they imply (1 when the dual is a hypersurface of degree delta_0).
PolarProfile = namedtuple("PolarProfile", "deltas dual_codim")


def _from_factors(factors: tuple[tuple[int, ...], ...], point_degree: int) -> ChernData:
    """Chern data of a product from its per-factor Chern coefficients.

    deg(c_j . h^(m-j)) pairs each monomial x^e with |e| = j against h^(m-j),
    which leaves multinomial(n - e) times the point degree; with k = n - e
    that is the |k| = m - j entry of the fold of the reversed lists.
    """
    g = multinomial_fold(c[::-1] for c in factors)
    return ChernData(
        dim=len(g) - 1,
        class_degrees=tuple(point_degree * v for v in reversed(g)),
        factors=factors,
        point_degree=point_degree,
    )


def chern_data_projective_space_product(dims: Sequence[int]) -> ChernData:
    """Chern data of P^{n1} x ... x P^{nd}: total Chern class
    prod_i (1 + x_i)^(n_i + 1), truncated at x_i^(n_i)."""
    factors = tuple(tuple(comb(n + 1, k) for k in range(n + 1)) for n in as_format(dims))
    return _from_factors(factors, 1)


def _hypersurface_chern_coeffs(n: int, deg_d: int) -> list[int]:
    """Coefficients of (1+y)^(n+2) / (1 + deg_d * y) up to y^n."""
    out = []
    s = 0
    for j in range(n + 1):
        s = comb(n + 2, j) - deg_d * s
        out.append(s)
    return out


def chern_data_smooth_hypersurface(n: int, deg_d: int) -> ChernData:
    """Chern data of a smooth degree-d hypersurface Y_n in P^{n+1}.

    The tangent sequence 0 -> T_Y -> T_P|_Y -> O_Y(d) -> 0 gives
    c(Y_n) = (1+y)^(n+2) / (1 + d y) with y the restricted hyperplane class,
    and deg(y^n . [Y_n]) = d.
    """
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    deg_d = index(deg_d)
    if deg_d < 1:
        raise ValueError(f"hypersurface degree must be positive, got {deg_d}")
    return _from_factors((tuple(_hypersurface_chern_coeffs(n, deg_d)),), deg_d)


def chern_data_product(a: ChernData, b: ChernData) -> ChernData:
    """Chern data of the Segre product of two varieties, by the Whitney
    formula: the total Chern class is the product of the two, so the factors
    concatenate and the point degrees multiply.

    Both inputs must carry their factors; degrees alone lose the split of
    the hyperplane class across the factors.
    """
    if not a.factors or not b.factors:
        raise ValueError("chern_data_product needs the Chern factors of both varieties")
    return _from_factors(a.factors + b.factors, a.point_degree * b.point_degree)


def polar_class(cd: ChernData, i: int) -> int:
    """delta_i = sum_{j=0}^{m-i} (-1)^j C(m+1-j, i+1) deg(c_j)."""
    m = cd.dim
    if not 0 <= i <= m:
        raise ValueError(f"polar class index {i} out of range 0..{m}")
    total = 0
    for j in range(m - i + 1):
        term = binomial(m + 1 - j, i + 1) * cd.class_degrees[j]
        total += -term if j & 1 else term
    return total


def dual_profile(cd: ChernData) -> PolarProfile:
    """All polar classes and the dual codimension they encode.

    delta_m = deg(c_0) >= 1, so some delta is always non-zero; for the
    tautological P^n this yields dual_codim = n + 1, the convention for an
    empty dual variety.
    """
    deltas = tuple(polar_class(cd, i) for i in range(cd.dim + 1))
    first = next(i for i, v in enumerate(deltas) if v)
    return PolarProfile(deltas=deltas, dual_codim=first + 1)


def alpha_coefficients(n: int, m: int, deg_d: int) -> list[int]:
    """The coefficients alpha_0..alpha_m expressing delta_0(X x Y_n) in the
    Chern class degrees of an m-dimensional X, for Y_n a smooth degree-d
    hypersurface in P^{n+1}:

        alpha_i = d * sum_{s=i}^{n+m} (-1)^s (m+n+1-s) g_{s-i} C(m+n-s, n-s+i) ,

    with g_j the y^j coefficient of (1+y)^(n+2)/(1+dy).  The leading factor
    d is deg(y^n . [Y_n]); dropping it fails the known dual degrees (conic 2,
    plane cubic 6, quadric-product examples 4/12/24).

    The sum runs on integers over the terms that can be non-zero: the
    binomial vanishes for s > n+i, and term by term
    (m+n+1-s) C(m+n-s, m-i) = (m-i+1) C(m+n+1-s, m-i+1), so with k = s - i
    each alpha_i is d (m-i+1) (-1)^i times the dot product of the signed
    coefficients (-1)^k g_k, k = 0..n, with the column C(m+n+1-i-k, m-i+1).
    That dot depends on m and i only through low = m - i + 1, so the
    coefficients are a readout of the dots S(n, low, d), low = 1..m+1, of
    ``_alpha_dots``, which ``stabilization_ratio_check`` compares directly.
    """
    if n < 0 or m < 0:
        raise ValueError(f"dimensions must be non-negative, got n={n}, m={m}")
    deg_d = index(deg_d)
    if deg_d < 1:
        raise ValueError(f"hypersurface degree must be positive, got {deg_d}")
    return _alpha_readout(_alpha_dots(n, (deg_d,), m + 1)[0], m, deg_d)


def _alpha_dots(n: int, degrees: Sequence[int], top: int) -> list[list[int]]:
    """For each d in ``degrees``, the row S(n, low, d), low = 1..top, with
    alpha_i(n, m, d) = d (-1)^i S(n, m-i+1, d); the signed Chern coefficients
    of each d are built once for the whole row."""
    signed_rows = [list(map(mul, cycle((1, -1)), _hypersurface_chern_coeffs(n, d)))
                   for d in degrees]
    return _dots(signed_rows, n, range(1, top + 1))


def _alpha_readout(dots: Sequence[int], m: int, deg_d: int) -> list[int]:
    """alpha_0..alpha_m from a row of ``_alpha_dots`` that reaches low = m + 1."""
    return list(map(mul, cycle((deg_d, -deg_d)), reversed(dots[:m + 1])))


def _dots(signed_rows: Sequence[Sequence[int]], n: int, lows: Iterable[int]) -> list[list[int]]:
    """low * sum_{k=0}^{n} signed[k] C(low+n-k, low) for each row of signed
    coefficients and each low, by C-level iteration; the binomial column of a
    low is built once for all rows."""
    out: list[list[int]] = [[] for _ in signed_rows]
    for low in lows:
        column = list(map(comb, range(low + n, low - 1, -1), repeat(low)))
        for row, signed in zip(out, signed_rows):
            row.append(low * sum(map(mul, signed, column)))
    return out


def delta0_product_with_hypersurface(cd: ChernData, n: int, deg_d: int) -> int:
    """delta_0(X x Y_n) from the Chern class degrees of X alone."""
    alphas = alpha_coefficients(n, cd.dim, deg_d)
    return sum(a * v for a, v in zip(alphas, cd.class_degrees))


def stabilization_ratio_check(m_max: int, n_max: int, d_max: int,
                              report: Callable[[str], None]) -> int:
    """Verify alpha_i(n+1, m, d) = (d-1) alpha_i(n, m, d) for every
    0 <= i <= m <= m_max, m <= n < n_max, 2 <= d <= d_max, report each
    failure, and return the number of cases.

    A case holds exactly when S(n+1, low, d) = (d-1) S(n, low, d) for
    low = m - i + 1 (see ``_alpha_dots``), so each (n, low, d) is compared once
    and the sweep holds two rows per d at a time.  A failed comparison is
    reported for every case that reads it, in (m, d, n, i) order."""
    if m_max < 0 or n_max < 0 or d_max < 2:
        raise ValueError("ranges must cover at least m=0, d=2")
    degrees = range(2, d_max + 1)
    checked = 0
    failures = []
    # row n serves the cases of n and of n - 1, so it reaches low = min(n, m_max) + 1
    rows = _alpha_dots(0, degrees, 1)
    for n in range(n_max):
        nxts = _alpha_dots(n + 1, degrees, min(n + 1, m_max, n_max - 1) + 1)
        top = min(n, m_max)
        checked += len(degrees) * (top + 1) * (top + 2) // 2
        for d, row, nxt in zip(degrees, rows, nxts):
            for low in range(1, top + 2):
                if nxt[low - 1] != (d - 1) * row[low - 1]:
                    failures += [(m, d, n, m + 1 - low) for m in range(low - 1, top + 1)]
        rows = nxts
    for m, d, n, i in sorted(failures):
        report(f"alpha ratio failed at (n, m, d, i)={(n, m, d, i)}")
    return checked


# -- binomial identities behind the ratio ------------------------------------
# Each identity is split into its defining sums and a comparison helper, so
# that ``identity_sweep`` can feed the helper sums it shares between cases.


def alternating_binomial_identity_holds(n: int, m: int, i: int) -> bool:
    """Check, by exact summation,

    sum_{r=i}^{n+m} (-1)^r (m+n+1-r) C(n+2, r+1-i) C(m+n-r, n-r+i)
        = (-1)^i (n+m+2-i) C(m+n+1-i, n+1)    for n >= m >= i >= 0.
    """
    if not (n >= m >= i >= 0):
        raise ValueError(f"need n >= m >= i >= 0, got n={n}, m={m}, i={i}")
    return _alternating_holds(n, m - i + 1, _alternating_sum(n, m - i + 1))


def _alternating_holds(n: int, low: int, dot: int) -> bool:
    """The identity divided by (-1)^i, for the ``_alternating_sum`` of low."""
    return dot == (n + low + 1) * comb(n + low, n + 1)


def _alternating_sum(n: int, low: int) -> int:
    """(-1)^i times the left-hand side of ``alternating_binomial_identity_holds``,
    summed like ``alpha_coefficients``: only r <= n+i contributes, and with k = r - i
    each term is (-1)^k low C(n+2, k+1) C(n+low-k, low) for low = m - i + 1."""
    return _dots([_signed_binomials(n + 2, n + 1)], n, (low,))[0][0]


def _signed_binomials(a: int, count: int) -> list[int]:
    """(-1)^k C(a, k+1) for k = 0..count-1: the signed coefficients of the
    alternating sum of n (a = n+2, count = n+1) and of f(n) (a = count = n+1)."""
    return list(map(mul, cycle((1, -1)), map(comb, repeat(a), range(1, count + 1))))


def f_sum(n: int, m: int) -> int:
    """f(n) = sum_{r=0}^{n} (-1)^r C(n+1, r+1) C(m+n+1-r, m)."""
    return _f_dot(_signed_binomials(n + 1, n + 1), m)


def _f_dot(signed: Sequence[int], m: int) -> int:
    """f(n, m) from its signed coefficients (-1)^r C(n+1, r+1), r = 0..n."""
    n = len(signed) - 1
    return sum(map(mul, signed, map(comb, range(m + n + 1, m, -1), repeat(m))))


def f_identity_holds(n: int, m: int) -> bool:
    """f(n) = C(m+n+2, m), plus its two-term recurrence

        (1+n-m) f(n) + (n+3) f(n+1) = 2 (m+n+2)! / ((n+1)! m!) ,

    both checked exactly (the gamma values are factorials of positive
    integers here)."""
    if not (n >= m >= 0):
        raise ValueError(f"need n >= m >= 0, got n={n}, m={m}")
    return _f_holds(n, m, f_sum(n, m), f_sum(n + 1, m))


def _f_holds(n: int, m: int, f_n: int, f_next: int) -> bool:
    if f_n != comb(m + n + 2, m):
        return False
    lhs = (1 + n - m) * f_n + (n + 3) * f_next
    rhs = 2 * factorial(n + 2 + m) // (factorial(n + 1) * factorial(m))
    return lhs == rhs


def _g_scaled(n: int, j: int) -> int:
    """G(n,j) = (n+1)! (n+2)! g(n,j) for
    g(n,j) = sum_{s=0}^{n} (-1)^s (n+1-s+j)! / ((n+1-s)! (s+1)! (n-s)!),
    summed term by term on integers:
    the s-th term times (n+1)! (n+2)! is
    (-1)^s (n+1-s+j)! * (n+1)!/(n+1-s)! * C(n+2, s+1) * (n+1-s)."""
    return _g_dot(_g_weights(n), j, list(map(factorial, range(n + 2 + j))))


def _g_weights(n: int) -> list[int]:
    """The j-free factors (-1)^s (n+1)!/(n+1-s)! C(n+2, s+1) (n+1-s) of the
    terms of G(n, j), s = 0..n."""
    weights = []
    for s in range(n + 1):
        term = perm(n + 1, s) * comb(n + 2, s + 1) * (n + 1 - s)
        weights.append(-term if s & 1 else term)
    return weights


def _g_dot(weights: Sequence[int], j: int, factorials: Sequence[int]) -> int:
    """G(n, j) from the ``_g_weights`` of n: the s-th weight times (n+1-s+j)!,
    read from ``factorials[k] = k!``, which reaches k = n+1+j."""
    n = len(weights) - 1
    return sum(map(mul, weights, factorials[n + 1 + j:j:-1]))


def g_identity_holds(n: int, j: int) -> bool:
    """g(n,j) = (n+2+j)! / ((n+1)! (n+2)!), plus the recurrence

        (n+1-j) g(n,j) + (n^2+5n+6) g(n+1,j) = 2 (n+2+j)! / ((n+1)!)^2 ,

    both exactly.  Multiplied by (n+1)! (n+2)! they read G(n,j) = (n+2+j)! and
    (n+1-j) G(n,j) + G(n+1,j) = 2 (n+2) (n+2+j)! for G = ``_g_scaled``, which
    are checked on integers."""
    if not (n >= j >= 1):
        raise ValueError(f"need n >= j >= 1, got n={n}, j={j}")
    return _g_holds(n, j, _g_scaled(n, j), _g_scaled(n + 1, j))


def _g_holds(n: int, j: int, g_n: int, g_next: int) -> bool:
    top = factorial(n + 2 + j)
    return g_n == top and (n + 1 - j) * g_n + g_next == 2 * (n + 2) * top


def identity_sweep(max_n: int, report: Callable[[str], None]) -> int:
    """Check the three identities above for every n <= max_n and all their
    m, i and j, report each failure, and return the number of cases.

    Each distinct sum is summed once: the alternating dots once per (n, low)
    with low = m - i + 1, and f(n+1, m) and G(n+1, j) once, for the
    recurrences of row n and the values of row n+1.  The sweep holds two rows
    of each, O(max_n) integers."""
    checked = 0
    factorials = list(map(factorial, range(2 * max_n + 3)))
    f_row = [f_sum(0, 0)]
    g_row: list[int] = []
    for n in range(max_n + 1):
        # row n+1 of f and G, as far as row n's recurrences and row n+1's values reach
        top = min(n + 1, max_n)
        signed = _signed_binomials(n + 2, n + 2)
        f_next = [_f_dot(signed, m) for m in range(top + 1)]
        weights = _g_weights(n + 1)
        g_next = [_g_dot(weights, j, factorials) for j in range(1, top + 1)]
        alternating = _dots([signed[:n + 1]], n, range(1, n + 2))[0]
        failed = [low for low, dot in enumerate(alternating, 1)
                  if not _alternating_holds(n, low, dot)]
        checked += (n + 1) * (n + 2) // 2
        for m in range(n + 1):
            for low in reversed(failed):  # i = m + 1 - low rises as low falls
                if low <= m + 1:
                    report(f"binomial identity failed at n={n} m={m} i={m + 1 - low}")
            checked += 1
            if not _f_holds(n, m, f_row[m], f_next[m]):
                report(f"f identity failed at n={n} m={m}")
        for j in range(1, n + 1):
            checked += 1
            if not _g_holds(n, j, g_row[j - 1], g_next[j - 1]):
                report(f"g identity failed at n={n} j={j}")
        f_row, g_row = f_next, g_next
    return checked
