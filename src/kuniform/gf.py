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
from math import isqrt
from typing import Iterator, Tuple

import numpy as np

from .errors import DivisionByZero, FieldMismatch, NotPrimePower, ParameterViolation

MAX_ORDER = 1 << 16
_EAGER_TABLE_MAX = 512


def _is_prime(n: int) -> bool:
    """Trial division by every f with f * f <= n."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def _prime_power(q: int) -> Tuple[int, int]:
    """Return (p, m) with q = p**m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    for m in range(q.bit_length() - 1, 0, -1):
        p = round(q ** (1 / m))
        if p ** m == q and _is_prime(p):
            return p, m
    raise NotPrimePower(f"{q} has more than one prime factor")


def _digits(codes: np.ndarray, d: int, width: int) -> np.ndarray:
    """(len(codes), width) base-d digits of the integer vector `codes`,
    least significant first, in the codes' integer type."""
    return codes[:, None] // d ** np.arange(width, dtype=codes.dtype) % d


def _smallest_irreducible(p: int, m: int) -> Tuple[int, ...]:
    """Lexicographically smallest irreducible monic degree-m polynomial,
    comparing coefficient tuples (c0, ..., c_{m-1}) low-degree-first.

    A sieve: every product of two monic polynomials of degrees j and
    m - j, 1 <= j <= m/2, is struck out, each at its rank, the number
    whose base-p digits from the most significant down are c0..c_{m-1};
    the lowest rank left is irreducible.
    """
    def monic(degree: int) -> np.ndarray:
        rows = _digits(np.arange(p ** degree, dtype=np.int32), p, degree)
        return np.column_stack((rows, np.ones(len(rows), dtype=np.int32)))

    reducible = np.zeros(p ** m, dtype=bool)
    rank_weights = p ** np.arange(m - 1, -1, -1, dtype=np.int32)
    for j in range(1, m // 2 + 1):
        g, h = monic(j), monic(m - j)
        products = np.zeros((len(g), len(h), m + 1), dtype=np.int32)
        for i in range(j + 1):
            products[:, :, i:i + m - j + 1] += g[:, None, i, None] * h
        reducible[(products[..., :m] % p) @ rank_weights] = True
    rank = np.array([reducible.argmin()], dtype=np.int32)
    return tuple(_digits(rank, p, m)[0, ::-1].tolist()) + (1,)


def _tables(p: int, m: int, modulus: Tuple[int, ...], a: np.ndarray,
            b: np.ndarray) -> Tuple[np.ndarray, ...]:
    """a + b and a * b as len(a) x len(b) tables, and -a as a vector, for
    the GF(p**m) codes in the integer vectors a and b, in the smallest
    unsigned type that holds p**m - 1.

    Addition and negation act digit by digit modulo p.  a * b is the sum
    over i of a_i * x**i * b; multiplying by x shifts the digits up and
    folds the one that leaves through the monic modulus.  The digits keep
    the integer type of a and b.
    """
    da, db = _digits(a, p, m), _digits(b, p, m)
    low = np.array(modulus[:m], dtype=db.dtype)
    shifted = [db]
    for _ in range(m - 1):
        prev = shifted[-1]
        up = np.zeros_like(prev)
        up[:, 1:] = prev[:, :-1]
        shifted.append((up - prev[:, -1:] * low) % p)
    products = np.einsum("ai,ibj->abj", da, np.stack(shifted)) % p
    weights = p ** np.arange(m, dtype=da.dtype)
    dtype = np.min_scalar_type(p ** m - 1)
    return tuple((codes @ weights).astype(dtype)
                 for codes in ((da[:, None] + db) % p, -da % p, products))


class FiniteField:
    """GF(p^m) with integer-encoded elements.  Use :func:`field_new`.

    For q <= 512, `add_table`, `neg_table` and `mul_table` are read-only
    numpy arrays of element codes; for larger q they are None, and each
    operation computes just its own result: modulo p for a prime q, else
    on the operands' digits, a product reduced by the digits of x**i mod
    the modulus (read off `_tables` once per field).
    """

    __slots__ = ("p", "m", "q", "modulus", "add_table", "neg_table",
                 "mul_table", "_powers")

    def __init__(self, p: int, m: int, modulus: Tuple[int, ...]) -> None:
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus  # low-degree-first, length m+1, monic
        self.add_table = self.neg_table = self.mul_table = None
        self._powers = None
        if self.q <= _EAGER_TABLE_MAX:
            codes = np.arange(self.q, dtype=np.int32)
            self.add_table, self.neg_table, self.mul_table = _tables(
                p, m, modulus, codes, codes)
            for table in (self.add_table, self.neg_table, self.mul_table):
                table.flags.writeable = False
        elif m > 1:
            # x**i for i < m is the code p**i, and x**(m-1) times those
            # gives x**i up to 2m - 2, the highest power in a product
            units = p ** np.arange(m, dtype=np.int64)
            _, _, high = _tables(p, m, modulus, units, units[-1:])
            self._powers = _digits(np.concatenate(
                (units, high[1:, 0].astype(np.int64))), p, m)

    # -- integer-code arithmetic --------------------------------------------

    def _operands(self, *codes: int) -> np.ndarray:
        return _digits(np.array(codes, dtype=np.int64), self.p, self.m)

    def _code(self, digits: np.ndarray) -> int:
        """The code of a digit vector, each digit taken modulo p."""
        return int(digits % self.p @ self.p ** np.arange(self.m))

    def add_codes(self, a: int, b: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[a, b])
        if self.m == 1:
            return (int(a) + int(b)) % self.p
        return self._code(self._operands(a, b).sum(axis=0))

    def neg_code(self, a: int) -> int:
        if self.neg_table is not None:
            return int(self.neg_table[a])
        if self.m == 1:
            return -int(a) % self.p
        return self._code(-self._operands(a)[0])

    def mul_codes(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        if self.m == 1:
            return int(a) * int(b) % self.p
        da, db = self._operands(a, b)
        return self._code(np.convolve(da, db) @ self._powers)

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
