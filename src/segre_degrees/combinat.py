"""Exact combinatorial primitives shared by the degree computations."""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable

__all__ = ["VerificationError", "binomial", "multinomial"]


class VerificationError(Exception):
    """An exact identity or integrality invariant failed to hold."""


def binomial(a: int, b: int) -> int:
    """C(a, b), with C(a, b) = 0 whenever b < 0 or b > a.

    The zero convention for a negative lower index is relied on throughout
    the polar-class sums.  The upper index must be non-negative.
    """
    if a < 0:
        raise ValueError(f"binomial upper index must be non-negative, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(parts_i!) for non-negative integer parts."""
    parts_t = tuple(parts)
    if any(p < 0 for p in parts_t):
        raise ValueError(f"multinomial parts must be non-negative, got {parts_t}")
    out = factorial(sum(parts_t))
    for p in parts_t:
        out //= factorial(p)
    return out
