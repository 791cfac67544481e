"""Exact combinatorial primitives shared by the degree computations."""

from collections import namedtuple
from collections.abc import Iterable, Sequence
from math import comb, factorial, gcd
from operator import index

__all__ = [
    "Route", "UsageError", "VerificationError", "as_format", "at_least", "binomial", "binomial_row",
    "fold_cost", "horner", "multinomial", "multinomial_fold", "power_cost", "rational", "segre_fold",
    "show_int",
]

# One way to a degree: its name, its peak as (what, bytes) from ``fold_cost`` or ``power_cost``
# (None where it holds nothing) and its call.
Route = namedtuple("Route", "name peak call")


class VerificationError(Exception):
    """An exact identity or integrality invariant failed to hold."""


class UsageError(ValueError):
    """An argument refused, with the rule it breaks; any other ``ValueError`` is a bug."""


# floor(log10(2) * 10^40): b * _LOG10_2 // 10^40 is floor(b log10 2) for every b below 2^64, where
# b log10 2 comes no nearer than 2.7e-20 above an integer and the truncation costs under 2e-21
_LOG10_2 = 3010299956639811952137388947244930267681


def show_int(value: int) -> str:
    """``value`` as a refusal shows it: ``str`` up to 4300 digits, the default int -> str limit,
    and past it its sign and ``<N-digit integer>``.  An integer of b bits has t or t + 1 digits
    for t = floor(b log10 2), so N costs one power of ten and no conversion."""
    t = abs(value).bit_length() * _LOG10_2 // 10 ** 40
    digits = t + (abs(value) >= 10 ** t)
    return str(value) if digits <= 4300 else f"{'-' * (value < 0)}<{digits}-digit integer>"


def at_least(value: int, least: int, what: str) -> int:
    """``value`` through ``operator.index``, so a float, ``Fraction`` or ``str`` raises
    ``TypeError`` instead of being truncated, and refused with ``UsageError`` below ``least``:
    the one rule for every integer argument of the package.  A tuple reads its entries through
    ``map(index)`` and passes its least entry here once."""
    value = index(value)
    if value < least:
        raise UsageError(f"{what} must be at least {show_int(least)}, got {show_int(value)}")
    return value


def as_format(dims: Iterable[int]) -> tuple[int, ...]:
    """The format (n1, ..., nd) of a product of projective spaces as a tuple of
    integers that are each at least 0 (``at_least``); an empty format raises ``UsageError``."""
    dims_t = tuple(map(index, dims))
    if not dims_t:
        raise UsageError(f"invalid dimensions {dims_t}")
    at_least(min(dims_t), 0, "each dimension")
    return dims_t


def binomial(a: int, b: int) -> int:
    """C(a, b) for a >= 0, and 0 whenever b < 0 or b > a: the full-range sums of
    the test oracles rely on the zeros.  No package module calls it; a whole
    row C(a, .) is ``binomial_row``."""
    a, b = at_least(a, 0, "binomial upper index"), index(b)
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def binomial_row(a: int) -> list[int]:
    """[C(a, 0), ..., C(a, a)]: the first half by the running product
    C(a, k+1) = C(a, k) (a-k) / (k+1), the second mirrored.  That is about a^2
    bit operations, where a ``comb`` call per entry costs about a^3."""
    a = at_least(a, 0, "binomial upper index")
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
    parts_t = tuple(map(index, parts))
    at_least(min(parts_t, default=0), 0, "each multinomial part")
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


def _bytes(*held: tuple[int, int]) -> int:
    """The bytes of a peak that holds, for each (ints, bits) of ``held``, ``ints`` integers below
    2^bits (8 bytes of slot, 28 + 4 per 30 bits each), plus 4 kB of frames and small objects."""
    return 4096 + sum(ints * (36 + 4 * (bits // 30)) for ints, bits in held)


def fold_cost(dims: Sequence[int], fold_weights: Sequence[int], x: int, copies: int = 1) -> tuple:
    """The peak of the fold of ``dims`` repeated ``copies`` times, as (what, bytes): two lists
    of N + 1 integers below d^N prod_j 2^(n_j+1) w_j^n_j (ceil(log2 v) is (v-1).bit_length());
    the readout at ``x`` holds x, an accumulator, their product and Karatsuba scratch, about
    five integers |x|^(N+1) times that (tracemalloc, 3.11), charged as eight."""
    dims, x, copies = list(map(index, dims)), index(x), index(copies)
    n_total, d = copies * sum(dims), copies * len(dims)
    bits = n_total * (d - 1).bit_length() + n_total + d + copies * sum(
        n * (w - 1).bit_length() for n, w in zip(dims, map(index, fold_weights)))
    held = (2 * (n_total + 1), bits), (8, bits + (n_total + 1) * (abs(x) - 1).bit_length())
    return f"the degree kernel for N={show_int(n_total)}, d={show_int(d)}", _bytes(*held)


def power_cost(base: int, exponent: int) -> tuple:
    """The peak of a closed form that builds base^exponent, as (what, bytes): fewer than ten
    integers of about its size at a time (tracemalloc peak up to eight on Python 3.11)."""
    base, exponent = index(base), index(exponent)
    bits = exponent * (base - 1).bit_length()
    return f"the closed form with {show_int(base)}^{show_int(exponent)}", _bytes((10, bits))
