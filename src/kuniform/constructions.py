"""Generators: Hadamard matrices and the finite-field array families.

Hadamard side: Sylvester doubling, Paley type I, Kronecker products,
normalization, and the order-(kappa) -> OA(kappa, kappa-1, 2, 2) map.
Field side: the projective-dot-product strength-2 family, the
polynomial-evaluation index-unity family, and its strength-3 extension for
power-of-two level counts.  Every generated array is certified without a
scan over its rows: a Hadamard matrix by H @ H.T = order * I, and a field
array, the row space {xG} of a generator matrix G, by the rank of G's
columns.  A deterministic picker turns a target system
size N >= 6 into a Hadamard order whose derived states are 2-uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import (
    BadOrder,
    NotNormalized,
    NotPowerOfTwo,
    ParameterViolation,
    PostconditionFailed,
    Unsupported,
)
from .gf import FiniteField, _digits, _is_prime, field_new
from .oa import (
    OrthogonalArray,
    _certified,
    _group_rows,
    _subset_blocks,
    remove_columns,
)
from .states import PureState, state_from_oa

MAX_GRID = 1 << 14  # largest generated run count


@dataclass(frozen=True)
class HadamardMatrix:
    """A +/-1 matrix H of a given order with H @ H.T = order * I (exact)."""

    order: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = self.order
        try:
            m = np.asarray(self.entries)
        except ValueError:
            raise ParameterViolation(f"entries are not {k}x{k}") from None
        if m.shape != (k, k):
            raise ParameterViolation(f"entries are not {k}x{k}")
        if not ((m == 1) | (m == -1)).all():
            raise ParameterViolation("entries must be +1 or -1")
        m = m.astype(np.int64)
        if not np.array_equal(m @ m.T, k * np.eye(k, dtype=np.int64)):
            raise ParameterViolation("H @ H.T != order * I")
        object.__setattr__(self, "entries", tuple(map(tuple, m.tolist())))

    @property
    def is_normalized(self) -> bool:
        return (all(v == 1 for v in self.entries[0])
                and all(row[0] == 1 for row in self.entries))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=np.int64)


def sylvester(m: int) -> HadamardMatrix:
    """Order 2**m by iterated doubling [[H, H], [H, -H]] from [[1]]."""
    if not 1 <= m <= 16:
        raise ParameterViolation(f"m must be in 1..16, got {m}")
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    cur = np.array([[1]], dtype=np.int64)
    for _ in range(m):
        cur = np.kron(h2, cur)
    return HadamardMatrix(2 ** m, cur)


def paley_type1(q: int) -> HadamardMatrix:
    """Order q+1 from the quadratic-residue character mod q (q prime,
    q = 3 mod 4); returned in normalized form."""
    if q > 1000 or not _is_prime(q) or q % 4 != 3:
        raise BadOrder(f"need a prime q = 3 (mod 4), q <= 1000; got {q}")
    # chi(a): 0 at a = 0, +1 on the nonzero squares mod q, -1 elsewhere
    chi = np.full(q, -1, dtype=np.int64)
    chi[np.arange(1, q) ** 2 % q] = 1
    chi[0] = 0
    size = q + 1
    s = np.zeros((size, size), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    s[1:, 1:] = chi[np.subtract.outer(np.arange(q), np.arange(q)) % q]
    h = np.eye(size, dtype=np.int64) + s
    return normalize(HadamardMatrix(size, h))


def kron(h1: HadamardMatrix, h2: HadamardMatrix) -> HadamardMatrix:
    prod = np.kron(h1.as_array(), h2.as_array())
    return HadamardMatrix(h1.order * h2.order, prod)


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Negate rows with a leading -1, then columns with a leading -1."""
    m = h.as_array()
    m = m * m[:, :1]
    m = m * m[:1, :]
    return HadamardMatrix(h.order, m)


def hadamard(order: int) -> HadamardMatrix:
    """A normalized Hadamard matrix of the requested order.

    Supported orders: 1, powers of two (Sylvester), 12 * 2**a (Paley q=11
    times Sylvester), and q+1 for primes q = 3 (mod 4) (Paley type I).
    """
    if order < 1:
        raise BadOrder(f"order must be positive, got {order}")
    if order == 1:
        return HadamardMatrix(1, ((1,),))
    if order & (order - 1) == 0:
        return sylvester(order.bit_length() - 1)
    base = order
    twos = 0
    while base % 2 == 0:
        base //= 2
        twos += 1
    if base == 3 and twos >= 2:  # order = 12 * 2**(twos-2)
        h12 = paley_type1(11)
        return h12 if twos == 2 else kron(h12, sylvester(twos - 2))
    if _is_prime(order - 1) and (order - 1) % 4 == 3:
        return paley_type1(order - 1)
    raise BadOrder(f"no supported construction of order {order}")


def hadamard_to_oa(h: HadamardMatrix) -> OrthogonalArray:
    """Drop the first column and map -1 -> 0, +1 -> 1; for a normalized
    matrix of order kappa >= 4 this is an OA(kappa, kappa-1, 2, 2).

    No scan is needed: the columns of H are orthogonal to each other and to
    the all-ones first column, which `HadamardMatrix` checked, and that puts
    each sign pair in any two of them kappa/4 times."""
    if h.order < 4:
        raise ParameterViolation(f"order must be >= 4, got {h.order}")
    if not h.is_normalized:
        raise NotNormalized("normalize the matrix first")
    return _certified(h.as_array()[:, 1:] == 1, 2, 2)


# ---------------------------------------------------------------------------
# finite-field families
# ---------------------------------------------------------------------------

def _independent_columns(f: FiniteField, generator: np.ndarray,
                         k: int) -> bool:
    """True iff every k columns of the m x N `generator` over GF(q) are
    linearly independent, which is strength k of its row space {xG}
    (Hedayat-Sloane-Stufken, Orthogonal Arrays, 1999, ch. 4).

    k <= 2: no column is zero and, each scaled so that its first nonzero
    entry is 1, no two are equal.  k >= 3: every k-subset of columns has
    full rank, by Gaussian elimination on a block of (subsets, m, k)
    stacks at a time; a row is cleared by pivot * row - entry * pivot row,
    so no inverse is needed.
    """
    m, n = generator.shape
    if k == 0:
        return True
    if not generator.any(axis=0).all():
        return False
    if k == 1:
        return True
    add, neg, mul = f.add_table, f.neg_table, f.mul_table
    if k == 2:
        inverse = (mul == 1).argmax(axis=1)
        lead = generator[(generator != 0).argmax(axis=0), np.arange(n)]
        scaled = mul[inverse[lead], generator]
        return len(_group_rows(scaled.T, range(m))[1]) == n + 1
    for subsets in _subset_blocks(n, k, m * k):
        stacks = np.moveaxis(generator[:, subsets], 0, 1)
        every = np.arange(len(stacks))
        for j in range(k):
            below = stacks[:, j:, j] != 0
            if not below.any(axis=1).all():
                return False
            p = j + below.argmax(axis=1)
            pivot_row = stacks[every, p]
            stacks[every, p] = stacks[every, j]
            stacks[every, j] = pivot_row
            scaled = mul[pivot_row[:, j, None, None], stacks[:, j + 1:]]
            cancel = mul[stacks[:, j + 1:, j, None], pivot_row[:, None]]
            stacks[:, j + 1:] = add[scaled, neg[cancel]]
    return True


def _linear_oa(f: FiniteField, cells: np.ndarray, m: int,
               k: int) -> OrthogonalArray:
    """The array of `cells`, the row space {xG} of an m x N generator G
    over GF(q) listed with x in ascending code order, certified for
    strength k by the columns of G.  Row x is xG, so G's rows are the rows
    at the unit vectors, codes q**i."""
    generator = cells[f.q ** np.arange(m)]
    if not _independent_columns(f, generator, k):
        raise PostconditionFailed(
            f"generator columns are dependent at strength {k}")
    return _certified(cells, f.q, k)


def _evaluations(f: FiniteField, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(coefficients, values) of the d**k polynomials of degree < k over
    GF(d): row t of `coefficients` holds c_0..c_{k-1}, the base-d digits of
    t, and row t of `values` the polynomial c_0 + c_1 x + ... at each field
    element in encoding order, by Horner's rule on the field's tables."""
    d = f.q
    coefficients = _digits(np.arange(d ** k), d, k)
    points = np.arange(d)
    values = np.broadcast_to(coefficients[:, k - 1:], (d ** k, d))
    for j in range(k - 2, -1, -1):
        values = f.add_table[f.mul_table[values, points],
                             coefficients[:, j, None]]
    return coefficients, values


def rao_oa(d: int, n: int) -> OrthogonalArray:
    """OA(d**n, (d**n - 1)/(d - 1), d, 2) for a prime power d.

    Rows are the vectors of GF(d)**n in ascending code order (coordinate 0 is
    the least-significant base-d digit).  Columns are the nonzero vectors
    whose first nonzero coordinate is 1, in ascending code order; the cell is
    the GF(d) dot product of row vector and column vector.
    """
    if n < 2:
        raise ParameterViolation(f"n must be >= 2, got {n}")
    f = field_new(d)  # raises NotPrimePower when d is composite non-power
    if d ** n > MAX_GRID:
        raise ParameterViolation(f"d**n = {d ** n} exceeds {MAX_GRID}")
    vectors = _digits(np.arange(d ** n), d, n)
    first = vectors[np.arange(d ** n), (vectors != 0).argmax(axis=1)]
    columns = vectors[first == 1]
    cells = np.zeros((d ** n, len(columns)), dtype=f.add_table.dtype)
    for i in range(n):
        cells = f.add_table[cells, f.mul_table[vectors[:, i, None],
                                               columns[:, i]]]
    return _linear_oa(f, cells, n, 2)


def bush_oa(d: int, k: int) -> OrthogonalArray:
    """Index-unity OA(d**k, d+1, d, k) for a prime power d >= k-1 >= 0.

    Row for the polynomial phi(x) = c0 + c1 x + ... + c_{k-1} x^{k-1}
    (coefficients enumerated in ascending code order) is the leading
    coefficient c_{k-1} followed by the evaluations phi(e) over the field
    elements in encoding order.
    """
    if k < 1:
        raise ParameterViolation(f"k must be >= 1, got {k}")
    if d < k - 1:
        raise ParameterViolation(f"need d >= k-1, got d={d}, k={k}")
    f = field_new(d)  # raises NotPrimePower when d is composite non-power
    if d ** k > MAX_GRID:
        raise ParameterViolation(f"d**k = {d ** k} exceeds {MAX_GRID}")
    coefficients, values = _evaluations(f, k)
    return _linear_oa(f, np.column_stack((coefficients[:, k - 1], values)),
                      k, k)


def bush_extended_oa(d: int) -> OrthogonalArray:
    """Index-unity OA(d**3, d+2, d, 3) for d = 2**m.

    Rows are indexed by (a, b, c) in GF(d)**3 -- c is the least-significant
    base-d digit of the row code -- and hold (a, b, a*e**2 + b*e + c for each
    field element e in encoding order).
    """
    allowed = {2 ** m for m in range(1, 15)}
    if d not in allowed:
        raise NotPowerOfTwo(f"need d = 2**m with m >= 1, got {d}")
    if d ** 3 > MAX_GRID:
        raise ParameterViolation(f"d**3 = {d ** 3} exceeds {MAX_GRID}")
    f = field_new(d)
    coefficients, values = _evaluations(f, 3)
    return _linear_oa(f, np.column_stack((coefficients[:, 2],
                                          coefficients[:, 1], values)), 3, 3)


# ---------------------------------------------------------------------------
# 2-uniform pipeline
# ---------------------------------------------------------------------------

def choose_hadamard_order(n: int) -> int:
    """Smallest supported Hadamard order kappa whose window
    kappa/2 + 2 <= N <= kappa - 1 admits N parties.

    With t = n.bit_length() - 1 (so 2**t <= n < 2**(t+1)): kappa = 2**(t+1),
    whose window is 2**t + 2 <= N <= 2**(t+1) - 1, except for n = 2**t and
    2**t + 1, which fall outside every power-of-two window and use
    kappa = 3 * 2**(t-1), whose window 3 * 2**(t-2) + 2 <= N holds them
    for t >= 3.
    """
    if n <= 5:
        raise Unsupported(f"no 2-uniform pipeline for n = {n} (need n >= 6)")
    t = n.bit_length() - 1
    return 3 << (t - 1) if n - (1 << t) <= 1 else 2 << t


def hadamard_two_uniform_state(n: int) -> "PureState":
    """2-uniform n-party state for any n >= 6: normalize a Hadamard matrix of
    the chosen order, drop its first column, keep the first n remaining
    columns, map -1 -> 0, and read the rows as all-plus-phase terms."""
    if n <= 5:
        raise Unsupported(f"no 2-uniform pipeline for n = {n} (need n >= 6)")
    kappa = choose_hadamard_order(n)
    array = hadamard_to_oa(hadamard(kappa))
    if n < array.factors:
        array = remove_columns(array, range(n, array.factors))
    return state_from_oa(array)
