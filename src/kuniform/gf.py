"""Exact finite-field arithmetic GF(p^m) for the array constructions.

Elements are encoded as integers 0..q-1 read as base-p coefficient vectors,
least-significant digit = constant coefficient.  The reducing modulus is the
lexicographically smallest irreducible monic polynomial of degree m over
GF(p), comparing coefficient tuples low-degree-first; for m = 1 this yields
the polynomial x and plain arithmetic modulo p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import DivisionByZero, FieldMismatch, NotPrimePower, ParameterViolation

MAX_ORDER = 1 << 16
_EAGER_TABLE_MAX = 512


def _prime_power(q: int) -> Tuple[int, int]:
    """Return (p, m) with q = p**m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    p = None
    n = q
    for cand in range(2, q + 1):
        if cand * cand > n:
            break
        if n % cand == 0:
            p = cand
            break
    if p is None:
        p = n  # q itself is prime
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise NotPrimePower(f"{q} has more than one prime factor")
    return p, m


def _poly_mod(dividend: Sequence[int], divisor: Sequence[int], p: int) -> Tuple[int, ...]:
    """Remainder of polynomial division over GF(p); low-degree-first coeffs.

    The divisor must be monic (leading coefficient 1).
    """
    rem = list(dividend)
    dn = len(divisor) - 1
    while len(rem) > dn:
        lead = rem[-1] % p
        if lead:
            shift = len(rem) - 1 - dn
            for i in range(dn + 1):
                rem[shift + i] = (rem[shift + i] - lead * divisor[i]) % p
        rem.pop()
    while rem and rem[-1] % p == 0:
        rem.pop()
    return tuple(c % p for c in rem)


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= m/2."""
    m = len(coeffs) - 1
    for deg in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=deg):
            divisor = tuple(tail) + (1,)
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> Tuple[int, ...]:
    """Lexicographically smallest irreducible monic degree-m polynomial.

    Candidate tuples (c0, ..., c_{m-1}) are compared low-degree-first, which
    is exactly the order produced by itertools.product over range(p).
    """
    for low in product(range(p), repeat=m):
        coeffs = tuple(low) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("an irreducible polynomial exists for every (p, m)")


class FiniteField:
    """GF(p^m) with integer-encoded elements.  Use :func:`field_new`."""

    __slots__ = ("p", "m", "q", "modulus", "_add_table", "_neg_table",
                 "_mul_table")

    def __init__(self, p: int, m: int, modulus: Tuple[int, ...]) -> None:
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus  # low-degree-first, length m+1, monic
        self._add_table = self._neg_table = self._mul_table = None
        if self.q <= _EAGER_TABLE_MAX:
            codes = range(self.q)
            # addition and negation act digit by digit, modulo p
            digits = np.array([self._digits(a) for a in codes], dtype=np.int64)
            weights = p ** np.arange(m, dtype=np.int64)
            self._add_table = (((digits[:, None] + digits) % p) @ weights).tolist()
            self._neg_table = ((-digits % p) @ weights).tolist()
            self._mul_table = [[self._mul_raw(a, b) for b in codes] for a in codes]

    # -- integer-code arithmetic --------------------------------------------

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits: Sequence[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _add_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def _neg_raw(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self._code([(-x) % self.p for x in self._digits(a)])

    def add_codes(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_raw(a, b)

    def neg_code(self, a: int) -> int:
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._neg_raw(a)

    def _mul_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        rem = _poly_mod(prod, self.modulus, self.p)
        return self._code(list(rem) + [0] * (self.m - len(rem)))

    def mul_codes(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def pow_code(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul_codes(result, base)
            base = self.mul_codes(base, base)
            e >>= 1
        return result

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow_code(a, self.q - 2)

    # -- element interface ---------------------------------------------------

    def element(self, value: int) -> "FieldElement":
        if not 0 <= value < self.q:
            raise ParameterViolation(f"element code {value} outside 0..{self.q - 1}")
        return FieldElement(self, value)

    def __iter__(self) -> Iterator["FieldElement"]:
        return (FieldElement(self, v) for v in range(self.q))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteField(q={self.q}, p={self.p}, m={self.m}, modulus={self.modulus})"


@dataclass(frozen=True)
class FieldElement:
    """An element of a specific :class:`FiniteField`."""

    field: FiniteField
    value: int

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field:
            raise FieldMismatch("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add_codes(self.value, other.value))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul_codes(self.value, other.value))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_code(self.value))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_code(self.value))


@lru_cache(maxsize=None)
def field_new(q: int) -> FiniteField:
    """Construct (and cache) GF(q); the cache makes field identity shared."""
    if q > MAX_ORDER:
        raise ParameterViolation(f"field order {q} exceeds {MAX_ORDER}")
    p, m = _prime_power(q)
    return FiniteField(p, m, _smallest_irreducible(p, m))


def add(a: FieldElement, b: FieldElement) -> FieldElement:
    return a + b


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    return a * b


def inv(a: FieldElement) -> FieldElement:
    return a.inverse()


def elements(f: FiniteField) -> Tuple[FieldElement, ...]:
    """All q elements in encoding order, starting with the additive identity."""
    return tuple(f)
