"""Exact combinatorial primitives shared by the degree computations."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import comb, factorial, gcd
from operator import index

__all__ = [
    "VerificationError", "as_format", "binomial", "binomial_row", "horner", "multinomial",
    "multinomial_fold", "rational", "segre_fold",
]


class VerificationError(Exception):
    """An exact identity or integrality invariant failed to hold."""


def as_format(dims: Iterable[int]) -> tuple[int, ...]:
    """The format (n1, ..., nd) of a product of projective spaces as a tuple.

    Each entry goes through ``operator.index``, so a float, ``Fraction`` or
    ``str`` raises ``TypeError`` instead of being truncated; an empty format
    or a negative dimension raises ``ValueError``.
    """
    dims_t = tuple(map(index, dims))
    if not dims_t or any(n < 0 for n in dims_t):
        raise ValueError(f"invalid dimensions {dims_t}")
    return dims_t


def binomial(a: int, b: int) -> int:
    """C(a, b) for a >= 0, and 0 whenever b < 0 or b > a: the full-range sums of
    the test oracles rely on the zeros.  No package module calls it; a whole
    row C(a, .) is ``binomial_row``."""
    if a < 0:
        raise ValueError(f"binomial upper index must be non-negative, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def binomial_row(a: int) -> list[int]:
    """[C(a, 0), ..., C(a, a)]: the first half by the running product
    C(a, k+1) = C(a, k) (a-k) / (k+1), the second mirrored.  That is about a^2
    bit operations, where a ``comb`` call per entry costs about a^3."""
    if a < 0:
        raise ValueError(f"binomial upper index must be non-negative, got {a}")
    row = [1]
    for k in range(a // 2):
        row.append(row[-1] * (a - k) // (k + 1))
    row.extend(reversed(row[:a + 1 - len(row)]))
    return row


def horner(coeffs: Sequence[int], x: int) -> int:
    """sum_s coeffs[s] x^s (0 for no coefficients) by Horner's rule, one multiply-add
    per entry: about N^2 bit operations for N entries of O(N) bits, not N^3."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def rational(num: int, den: int) -> tuple[int, int]:
    """num / den as a reduced pair (p, q) of integers with q > 0: the exact
    rationals of the package, which builds no ``Fraction``."""
    if den == 0:
        raise ZeroDivisionError(f"rational({num}, 0)")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(parts_i!) for non-negative integer parts."""
    parts_t = tuple(parts)
    if any(p < 0 for p in parts_t):
        raise ValueError(f"multinomial parts must be non-negative, got {parts_t}")
    out = factorial(sum(parts_t))
    for p in parts_t:
        out //= factorial(p)
    return out


def multinomial_fold(factors: Iterable[Sequence[int]]) -> list[int]:
    """g[s] = sum over |k| = s of multinomial(k) * prod_j a_j[k_j] for the
    coefficient lists a_j that ``factors`` yields, i.e. sum_s g[s] t^s / s! =
    prod_j sum_k a_j[k] t^k / k!.  Folds one factor at a time with
    g'[s+k] += g[s] * a_j[k] * C(s+k, k): O(d N^2) integer operations for
    d lists of lengths n_j + 1 and N = sum n_j.
    """
    g = [1]
    for a in factors:
        out = [0] * (len(g) + len(a) - 1)
        for s, term in enumerate(g):
            if not term:
                continue
            # term runs through g[s] * C(s+k, k) for k = 0, 1, ...
            for k, a_k in enumerate(a):
                if a_k:
                    out[s + k] += term * a_k
                term = term * (s + k + 1) // (k + 1)
        g = out
    return g


def segre_fold(dims: Sequence[int], weights: Sequence[int]) -> list[int]:
    """``multinomial_fold`` of the rows C(n_j+1, k+1) w_j^k: the fold both Segre degrees read."""
    return multinomial_fold([c * w ** k for k, c in enumerate(binomial_row(n + 1)[1:])]
                            for n, w in zip(dims, weights))
