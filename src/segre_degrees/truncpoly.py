"""Sparse multivariate polynomials over Z with per-variable exponent caps.

This implements the quotient ring Z[x1,...,xd]/(x1^(c1+1),...,xd^(cd+1)):
any term whose exponent exceeds the cap of some variable is identically zero
and is silently discarded.  Terms are stored sparsely as a dict mapping
exponent tuples to Python integers, so coefficients never overflow; zero
coefficients are never stored.

Instances are immutable by convention (every operation returns a fresh
polynomial), which makes them safe to share across threads or worker
processes.  Serialization uses graded lexicographic term order, so string
forms are deterministic.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from operator import getitem
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Mapping, Sequence, Tuple

if TYPE_CHECKING:  # annotations only; each function that builds a Fraction imports it
    from fractions import Fraction

__all__ = [
    "Exponent",
    "TruncatedPoly",
    "elementary_symmetric",
    "graded_exponents",
    "series_inverse",
]

Exponent = Tuple[int, ...]


def _check_exponent(exp: Exponent, caps: Exponent) -> None:
    if len(exp) != len(caps):
        raise ValueError(f"exponent {exp} has {len(exp)} entries, expected {len(caps)}")
    for e, c in zip(exp, caps):
        if e < 0:
            raise ValueError(f"negative entry in exponent {exp}")
        if e > c:
            raise ValueError(f"exponent {exp} exceeds caps {caps}")


class TruncatedPoly:
    """A sparse element of Z[x1,...,xd] / (x1^(c1+1), ..., xd^(cd+1))."""

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Sequence[int], terms: Mapping[Sequence[int], int] | None = None):
        caps_t = tuple(int(c) for c in caps)
        if any(c < 0 for c in caps_t):
            raise ValueError(f"caps must be non-negative, got {caps_t}")
        clean: Dict[Exponent, int] = {}
        if terms:
            for exp, coeff in terms.items():
                exp_t = tuple(int(e) for e in exp)
                _check_exponent(exp_t, caps_t)
                if coeff:
                    clean[exp_t] = coeff
        self.caps = caps_t
        self.terms = clean

    @classmethod
    def _raw(cls, caps: Exponent, terms: Dict[Exponent, int]) -> "TruncatedPoly":
        # Internal fast path: caller guarantees terms are valid and zero-free.
        p = object.__new__(cls)
        p.caps = caps
        p.terms = terms
        return p

    @classmethod
    def zero(cls, caps: Sequence[int]) -> "TruncatedPoly":
        return cls(caps)

    @classmethod
    def constant(cls, caps: Sequence[int], value: int) -> "TruncatedPoly":
        caps_t = tuple(caps)
        if not value:
            return cls(caps_t)
        return cls(caps_t, {(0,) * len(caps_t): value})

    @classmethod
    def variable(cls, caps: Sequence[int], index: int) -> "TruncatedPoly":
        """The polynomial x_{index} (0-based index)."""
        caps_t = tuple(caps)
        if not 0 <= index < len(caps_t):
            raise ValueError(f"variable index {index} out of range for {len(caps_t)} variables")
        exp = [0] * len(caps_t)
        exp[index] = 1
        return cls(caps_t, {tuple(exp): 1})

    @classmethod
    def monomial(cls, caps: Sequence[int], exp: Sequence[int], coeff: int = 1) -> "TruncatedPoly":
        return cls(caps, {tuple(exp): coeff})

    # -- ring structure ------------------------------------------------------

    def _require_same_ring(self, other: "TruncatedPoly") -> None:
        if self.caps != other.caps:
            raise ValueError(f"cap mismatch: {self.caps} vs {other.caps}")

    def __add__(self, other: "TruncatedPoly | int") -> "TruncatedPoly":
        if isinstance(other, int):
            other = TruncatedPoly.constant(self.caps, other)
        self._require_same_ring(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            s = out.get(exp, 0) + coeff
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return TruncatedPoly._raw(self.caps, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly._raw(self.caps, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedPoly | int") -> "TruncatedPoly":
        if isinstance(other, int):
            other = TruncatedPoly.constant(self.caps, other)
        return self + (-other)

    def __rsub__(self, other: int) -> "TruncatedPoly":
        return TruncatedPoly.constant(self.caps, other) - self

    def __mul__(self, other: "TruncatedPoly | int") -> "TruncatedPoly":
        if isinstance(other, int):
            if not other:
                return TruncatedPoly._raw(self.caps, {})
            return TruncatedPoly._raw(self.caps, {e: c * other for e, c in self.terms.items()})
        self._require_same_ring(other)
        caps = self.caps
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        out: Dict[Exponent, int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                if any(x > c for x, c in zip(exp, caps)):
                    continue
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return TruncatedPoly._raw(caps, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TruncatedPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = TruncatedPoly.constant(self.caps, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.caps == other.caps and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * len(self.caps), 0)

    def coefficient(self, exp: Sequence[int]) -> int:
        """Coefficient of the given exponent; raises if it exceeds the caps."""
        exp_t = tuple(int(e) for e in exp)
        _check_exponent(exp_t, self.caps)
        return self.terms.get(exp_t, 0)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in graded lexicographic order (ascending total degree)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, index: int) -> "TruncatedPoly":
        """Formal partial derivative with respect to x_{index} (0-based)."""
        if not 0 <= index < len(self.caps):
            raise ValueError(f"variable index {index} out of range")
        out: Dict[Exponent, int] = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e:
                new = exp[:index] + (e - 1,) + exp[index + 1:]
                out[new] = out.get(new, 0) + e * coeff
        return TruncatedPoly._raw(self.caps, {e: c for e, c in out.items() if c})

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        """Exact evaluation at a rational point (one value per variable).

        With v_j = p_j / q_j every term is put over the common denominator
        prod_j q_j^(c_j), c_j the caps, so its numerator is the integer
        coeff * prod_j p_j^(e_j) q_j^(c_j - e_j); the numerators are summed on
        integers and a single ``Fraction`` is built at the end.
        """
        from fractions import Fraction

        vals = [Fraction(v) for v in values]
        if len(vals) != len(self.caps):
            raise ValueError(f"expected {len(self.caps)} values, got {len(vals)}")
        # scaled[j][e] = p_j^e * q_j^(c_j - e), so scaled[j][0] = q_j^(c_j)
        scaled = [[v.numerator ** e * v.denominator ** (c - e) for e in range(c + 1)]
                  for v, c in zip(vals, self.caps)]
        numerator = 0
        for exp, coeff in self.terms.items():
            numerator += coeff * prod(map(getitem, scaled, exp))
        return Fraction(numerator, prod(row[0] for row in scaled))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                       for i, e in enumerate(exp) if e]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"TruncatedPoly(caps={self.caps}, {self})"


def graded_exponents(caps: Sequence[int]) -> Iterator[Exponent]:
    """All exponents within the caps, in graded lexicographic order."""
    exps = list(product(*(range(c + 1) for c in caps)))
    exps.sort(key=lambda e: (sum(e), e))
    return iter(exps)


def elementary_symmetric(caps: Sequence[int], i: int) -> TruncatedPoly:
    """The i-th elementary symmetric polynomial e_i(x1,...,xd), truncated.

    e_0 = 1; a squarefree monomial touching a cap-0 variable is truncated
    away, which is exactly the x_j = 0 slice of the full polynomial.
    """
    caps_t = tuple(caps)
    d = len(caps_t)
    if not 0 <= i <= d:
        raise ValueError(f"elementary symmetric index {i} out of range 0..{d}")
    if i == 0:
        return TruncatedPoly.constant(caps_t, 1)
    terms: Dict[Exponent, int] = {}
    live = [j for j in range(d) if caps_t[j] >= 1]
    for combo in combinations(live, i):
        exp = [0] * d
        for j in combo:
            exp[j] = 1
        terms[tuple(exp)] = 1
    return TruncatedPoly._raw(caps_t, terms)


def series_inverse(h: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of h within the truncated ring.

    Requires constant term 1.  Coefficients are found by graded convolution:
    for e != 0,  inv[e] = -sum_{0 < g <= e} h[g] * inv[e - g].
    """
    if h.constant_term != 1:
        raise ValueError("series inverse requires constant term 1")
    caps = h.caps
    rest = [(e, c) for e, c in h.terms.items() if any(e)]
    inv: Dict[Exponent, int] = {}
    for e in graded_exponents(caps):
        if not any(e):
            inv[e] = 1
            continue
        acc = 0
        for g, c in rest:
            f = tuple(a - b for a, b in zip(e, g))
            if min(f) < 0:
                continue
            prev = inv.get(f)
            if prev:
                acc += c * prev
        if acc:
            inv[e] = -acc
    return TruncatedPoly._raw(caps, inv)
