"""Polar classes, dual degrees, and the binomial identities behind the
stabilization of dual degrees of products with quadrics.

For a projective variety Y of dimension m, the polar classes are

    delta_i(Y) = sum_{j=0}^{m-i} (-1)^j C(m+1-j, i+1) deg(c_j(Y)) ,

with c_j the Chern classes of the tangent bundle (Chern-Mather classes when Y
is singular; they coincide on smooth varieties).  codim(Y^dual) - 1 is the
least i with delta_i != 0, and delta_0 is deg(Y^dual) whenever the dual is a
hypersurface.  By the binomial theorem G(1+t) - G(1) = sum_i delta_i t^(i+1)
for G(u) = sum_j (-1)^j deg(c_j) u^(m+1-j), so delta_0 = G'(1), and the generic
ED degree sum_i delta_i is G(2) - G(1) (Draisma et al., FoCM 2016, Thm 5.4).

``ChernData`` records the degrees deg(c_j . h^(m-j)), j = 0..m, and they
are all a Whitney product needs.  For X of dimension m and Y of dimension n,
c(X x Y) = c(X) c(Y) and h = h_X + h_Y, so pairing c_a(X) c_b(Y) with
(h_X + h_Y)^(m+n-a-b) leaves one term of the binomial expansion,

    C(m+n-a-b, m-a) deg(c_a(X) h_X^(m-a)) deg(c_b(Y) h_Y^(n-b)) ,

which is one ``combinat.multinomial_fold`` of the two reversed lists of class
degrees.  The reversed class degrees of P^n are C(n+1, k+1), so a product of
projective spaces is one fold of those rows, ``combinat.segre_fold`` at unit
weights; a factor embedded by O(w) has the rows C(n+1, k+1) w^k.  The
shortcut for the product with a smooth hypersurface Y_n in P^{n+1} of
degree d reads only the class degrees of X:

    delta_0(X x Y_n) = sum_i alpha_i(n, m, d) * deg(c_i(X)) ,

where alpha_i is an explicit alternating binomial sum (see
``alpha_coefficients``) satisfying alpha_i(n+1, m, d) = (d-1) alpha_i(n, m, d)
for n >= m.  That ratio, and the binomial identities proving it, are checked
case by case by the ``*_identity_holds`` functions, and exhaustively by
``identity_sweep`` and ``stabilization_ratio_check``.

Those checks sum each defining series exactly on Python integers, by one path
that single cases and sweeps share: the g sum term by term in ``_g_dot``,
scaled by (n+1)! (n+2)! so that every term is an integer, and the alpha,
alternating and f sums, a signed row against a binomial column, by the
``_running_sums`` of ``_alpha_dots`` and ``_identity_rounds``, with no
``comb`` per term.  No sum is replaced by its closed form, which would make
the check a tautology.  The two sweeps sum each distinct series once and hand
it to every case that reads it: the alpha and alternating sums depend on m and
i only through m - i + 1, so each row n holds one dot per value of it (per d
for alpha), and the f and g values of row n+1 serve both the recurrences of
row n and the checks of row n+1.  Each distinct comparison is made once, and a
failed one is reported for every case that reads it, while the case count
still counts every case.  A sweep holds two rows at a time, never a table over
all n.  The routes these replaced, the multigraded ring, the per-term polar
sum, the ``Fraction`` bodies of the integer sums and the ``comb`` columns, are
test oracles in ``tests/ring_oracle.py``.
"""

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import accumulate, cycle
from math import comb, factorial, perm
from operator import index, mul

from .combinat import (UsageError, as_format, at_least, binomial_row, multinomial_fold, segre_fold,
                       show_int)

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
    "g_identity_holds",
    "identity_sweep",
    "stabilization_ratio_check",
]


class ChernData(namedtuple("ChernData", "dim class_degrees")):
    """Degrees of the (Chern-Mather) classes of an embedded variety:
    ``class_degrees[j]`` is deg(c_j . h^(m-j)) for the hyperplane class h, so
    class_degrees[0] is the degree of the variety."""

    __slots__ = ()

    def __new__(cls, dim: int, class_degrees: Sequence[int]) -> "ChernData":
        dim, degrees = at_least(dim, 0, "dim"), tuple(map(index, class_degrees))
        if len(degrees) != dim + 1:
            raise UsageError(f"need {show_int(dim + 1)} class degrees for dimension "
                             f"{show_int(dim)}, got {len(degrees)}")
        at_least(degrees[0], 1, "the variety degree")
        return super().__new__(cls, dim, degrees)


# All polar classes delta_0..delta_m of a variety plus the codimension of its
# dual that they imply (1 when the dual is a hypersurface of degree delta_0).
PolarProfile = namedtuple("PolarProfile", "deltas dual_codim")


def _from_fold(g: Sequence[int]) -> ChernData:
    """Chern data of a product whose fold of reversed class degrees is ``g``."""
    return ChernData(len(g) - 1, g[::-1])


def chern_data_projective_space_product(dims: Sequence[int]) -> ChernData:
    """Chern data of P^{n1} x ... x P^{nd}: ``combinat.segre_fold`` at unit weights, reversed."""
    dims = as_format(dims)
    return _from_fold(segre_fold(dims, (1,) * len(dims)))


def _hypersurface_chern_coeffs(n: int, deg_d: int) -> list[int]:
    """Coefficients of (1+y)^(n+2) / (1 + deg_d * y) up to y^n."""
    return list(accumulate(binomial_row(n + 2)[:n + 1], lambda s, c: c - deg_d * s))


def chern_data_smooth_hypersurface(n: int, deg_d: int) -> ChernData:
    """Chern data of a smooth degree-d hypersurface Y_n in P^{n+1}.

    The tangent sequence 0 -> T_Y -> T_P|_Y -> O_Y(d) -> 0 gives
    c(Y_n) = (1+y)^(n+2) / (1 + d y) with y the restricted hyperplane class,
    and deg(y^n . [Y_n]) = d, so each class degree is d times a coefficient.
    """
    n, deg_d = at_least(n, 0, "n"), at_least(deg_d, 1, "hypersurface degree")
    return ChernData(n, [deg_d * c for c in _hypersurface_chern_coeffs(n, deg_d)])


def chern_data_product(a: ChernData, b: ChernData) -> ChernData:
    """Chern data of the Segre product of any two varieties, by the Whitney
    formula: one fold of their reversed class degrees (see the module notes)."""
    return _from_fold(multinomial_fold((a.class_degrees[::-1], b.class_degrees[::-1])))


def dual_profile(cd: ChernData) -> PolarProfile:
    """All polar classes, read off G(1+t), and the dual codimension they encode.

    Each pass of running sums over G's coefficients, highest first, divides G
    by u - 1 and ends in the remainder, the next coefficient of G(1+t): m+2
    passes, about m^2 additions in all, where a binomial per term costs about
    m^3 bit operations.  delta_m = deg(c_0) >= 1, so some delta is non-zero;
    for P^n, dual_codim = n + 1, the convention for an empty dual variety.
    """
    coeffs, shifted = [*map(mul, cycle((1, -1)), cd.class_degrees), 0], []
    while coeffs:
        coeffs = list(accumulate(coeffs))
        shifted.append(coeffs.pop())
    deltas = tuple(shifted[1:])
    return PolarProfile(deltas, dual_codim=next(i for i, v in enumerate(deltas) if v) + 1)


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
    ``_alpha_dots``, which reads every column from running sums and which
    ``stabilization_ratio_check`` compares directly.
    """
    n, m = at_least(n, 0, "n"), at_least(m, 0, "m")
    deg_d = at_least(deg_d, 1, "hypersurface degree")
    dots = _alpha_dots(n, (deg_d,), m + 1)[0]
    return list(map(mul, cycle((deg_d, -deg_d)), reversed(dots)))


def _alpha_dots(n: int, degrees: Sequence[int], top: int) -> list[list[int]]:
    """For each d in ``degrees``, the row S(n, low, d), low = 1..top, with
    alpha_i(n, m, d) = d (-1)^i S(n, m-i+1, d): low times entry n of round
    low+1 of the ``_running_sums`` of the signed coefficients (-1)^k g_k."""
    rows = []
    for d in degrees:
        signed = list(map(mul, cycle((1, -1)), _hypersurface_chern_coeffs(n, d)))
        rounds = _running_sums(signed, top + 1)
        rows.append([low * rounds[low + 1][n] for low in range(1, top + 1)])
    return rows


def _running_sums(row: Sequence[int], passes: int) -> list[list[int]]:
    """``row`` followed by ``passes`` rounds of running sums over it.  Round t
    holds the coefficients of row(x) / (1-x)^t, so its entry j is
    sum_k row[k] C(t-1+j-k, t-1): every binomial column the alpha,
    alternating and f series read, by additions alone."""
    rounds = [list(row)]
    for _ in range(passes):
        rounds.append(list(accumulate(rounds[-1])))
    return rounds


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
    m_max, n_max = at_least(m_max, 0, "m_max"), at_least(n_max, 0, "n_max")
    d_max = at_least(d_max, 2, "d_max")
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
# One comparison helper per identity, fed by ``_identity_rounds`` or ``_g_dot``.


def _identity_rounds(n: int) -> list[list[int]]:
    """The n+2 ``_running_sums`` rounds of (-1)^k C(n+2, k+1), k = 0..n+2, the
    one source of the alternating and f sums: the alternating dot of (n, low)
    is low times entry n of round low+1, and f(n+1, m) is entry n+2 of round
    m+1, so f(0, m) reads the rounds of n = -1."""
    return _running_sums(list(map(mul, cycle((1, -1)), [*binomial_row(n + 2)[1:], 0])), n + 2)


def alternating_binomial_identity_holds(n: int, m: int, i: int) -> bool:
    """Check, by exact summation,

    sum_{r=i}^{n+m} (-1)^r (m+n+1-r) C(n+2, r+1-i) C(m+n-r, n-r+i)
        = (-1)^i (n+m+2-i) C(m+n+1-i, n+1)    for n >= m >= i >= 0.

    As for ``alpha_coefficients``, (-1)^i times the left-hand side is the dot
    of (n, low = m - i + 1)."""
    i = at_least(i, 0, "i")
    m = at_least(m, i, "m")
    n = at_least(n, m, "n")
    low = m - i + 1
    return _alternating_holds(n, low, low * _identity_rounds(n)[low + 1][n])


def _alternating_holds(n: int, low: int, dot: int) -> bool:
    """The identity divided by (-1)^i, for the alternating dot of (n, low)."""
    return dot == (n + low + 1) * comb(n + low, n + 1)


def f_identity_holds(n: int, m: int) -> bool:
    """f(n) = sum_{r=0}^{n} (-1)^r C(n+1, r+1) C(m+n+1-r, m) = C(m+n+2, m), plus
    its two-term recurrence

        (1+n-m) f(n) + (n+3) f(n+1) = 2 (m+n+2)! / ((n+1)! m!) ,

    both checked exactly (the gamma values are factorials of positive
    integers here)."""
    m = at_least(m, 0, "m")
    n = at_least(n, m, "n")
    return _f_holds(n, m, _identity_rounds(n - 1)[m + 1][n + 1],
                    _identity_rounds(n)[m + 1][n + 2])


def _f_holds(n: int, m: int, f_n: int, f_next: int) -> bool:
    if f_n != comb(m + n + 2, m):
        return False
    lhs = (1 + n - m) * f_n + (n + 3) * f_next
    rhs = 2 * factorial(n + 2 + m) // (factorial(n + 1) * factorial(m))
    return lhs == rhs


def _g_weights(n: int) -> list[int]:
    """The j-free factors (-1)^s (n+1)!/(n+1-s)! C(n+2, s+1) (n+1-s) of the
    terms of G(n, j), s = 0..n."""
    weights = []
    for s, c in enumerate(binomial_row(n + 2)[1:-1]):
        term = perm(n + 1, s) * c * (n + 1 - s)
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

    both exactly, for g(n,j) = sum_{s=0}^{n} (-1)^s (n+1-s+j)! / ((n+1-s)! (s+1)! (n-s)!).
    Times (n+1)! (n+2)! they read G(n,j) = (n+2+j)! and (n+1-j) G(n,j) +
    G(n+1,j) = 2 (n+2) (n+2+j)!, checked on the integer terms of ``_g_dot``."""
    j = at_least(j, 1, "j")
    n = at_least(n, j, "n")
    factorials = list(map(factorial, range(n + 3 + j)))
    return _g_holds(n, j, _g_dot(_g_weights(n), j, factorials),
                    _g_dot(_g_weights(n + 1), j, factorials))


def _g_holds(n: int, j: int, g_n: int, g_next: int) -> bool:
    top = factorial(n + 2 + j)
    return g_n == top and (n + 1 - j) * g_n + g_next == 2 * (n + 2) * top


def identity_sweep(max_n: int, report: Callable[[str], None]) -> int:
    """Check the three identities above for every n <= max_n and all their
    m, i and j, report each failure, and return the number of cases.

    Each distinct sum is summed once: the alternating dots once per (n, low)
    with low = m - i + 1, and f(n+1, m) and G(n+1, j) once, for the
    recurrences of row n and the values of row n+1; f(n+1, m) and the
    alternating dots of row n read one ``_identity_rounds``.  It holds two
    rows of each and the rounds of one row, O(max_n^2) integers."""
    max_n = at_least(max_n, 0, "max_n")
    checked = 0
    factorials = list(map(factorial, range(2 * max_n + 3)))
    f_row = [_identity_rounds(-1)[1][1]]
    g_row: list[int] = []
    for n in range(max_n + 1):
        # row n+1 of f and G, as far as row n's recurrences and row n+1's values reach
        top = min(n + 1, max_n)
        rounds = _identity_rounds(n)
        f_next = [rounds[m + 1][n + 2] for m in range(top + 1)]
        weights = _g_weights(n + 1)
        g_next = [_g_dot(weights, j, factorials) for j in range(1, top + 1)]
        failed = [low for low in range(1, n + 2)
                  if not _alternating_holds(n, low, low * rounds[low + 1][n])]
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
