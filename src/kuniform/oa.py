"""Orthogonal arrays: strength, index, irredundancy, transformations, bounds.

An OA(r, N, d, k) is an r x N grid over symbols 0..d-1 in which every r x k
column subarray contains each k-tuple exactly lambda = r/d**k times.  The
array type is immutable; transformation functions return new arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadSubset,
    EmptyResult,
    NotAnOAAtStrength,
    NotAPermutation,
    ParameterViolation,
    ShapeMismatch,
    SymbolOutOfRange,
    WrongCount,
)

Row = Tuple[int, ...]


@dataclass(frozen=True)
class OrthogonalArray:
    """Immutable r x N symbol grid with an optional declared strength.

    A declared strength is verified at construction time (and the index
    r/d**k must be a positive integer); passing strength=None skips that.
    Row order is significant and preserved: sign-fixing indexes phase
    variables by row position.
    """

    rows: Tuple[Row, ...]
    levels: int
    strength: Optional[int] = None

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ParameterViolation(f"levels must be >= 2, got {self.levels}")
        rows = tuple(tuple(int(c) for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ParameterViolation("an array needs at least one row")
        width = len(rows[0])
        if width == 0:
            raise ParameterViolation("an array needs at least one column")
        for row in rows:
            if len(row) != width:
                raise ShapeMismatch("ragged rows")
            for cell in row:
                if not 0 <= cell < self.levels:
                    raise SymbolOutOfRange(
                        f"symbol {cell} outside 0..{self.levels - 1}")
        if self.strength is not None:
            k = self.strength
            if not 0 <= k <= width:
                raise ParameterViolation(f"declared strength {k} outside 0..{width}")
            if len(rows) % self.levels ** k != 0:
                raise NotAnOAAtStrength(
                    f"{len(rows)} runs cannot give an integer index at strength {k}")
            if not verify_strength(self, k):
                raise NotAnOAAtStrength(f"rows do not have strength {k}")

    @property
    def runs(self) -> int:
        return len(self.rows)

    @property
    def factors(self) -> int:
        return len(self.rows[0])

    @property
    def index(self) -> Optional[int]:
        """lambda = r / d**k at the declared strength, if one was declared."""
        if self.strength is None:
            return None
        return self.runs // self.levels ** self.strength

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "?" if self.strength is None else self.strength
        return f"OA({self.runs},{self.factors},{self.levels},{k})"


# ---------------------------------------------------------------------------
# strength / index / irredundancy
# ---------------------------------------------------------------------------

def verify_strength(array: OrthogonalArray, k: int) -> bool:
    """True iff every k-column projection contains each k-tuple r/d**k times."""
    n = array.factors
    if not 0 <= k <= n:
        raise ParameterViolation(f"strength {k} outside 0..{n}")
    if k == 0:
        return True
    r, d = array.runs, array.levels
    if r % d ** k != 0:
        return False
    lam = r // d ** k
    grid = np.asarray(array.rows, dtype=np.int64)
    weights = d ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for cols in combinations(range(n), k):
        codes = grid[:, cols] @ weights
        counts = np.bincount(codes, minlength=d ** k)
        if counts.min() != lam or counts.max() != lam:
            return False
    return True


def max_strength(array: OrthogonalArray) -> int:
    """Largest k with verify_strength true (strength is downward closed)."""
    k = 0
    while k + 1 <= array.factors and verify_strength(array, k + 1):
        k += 1
    return k


def oa_index(array: OrthogonalArray, k: int) -> int:
    """lambda = r / d**k; requires the array to actually have strength k."""
    if not verify_strength(array, k):
        raise NotAnOAAtStrength(f"array does not have strength {k}")
    return array.runs // array.levels ** k


class IrredundancyWitness(NamedTuple):
    removed_columns: Tuple[int, ...]
    row_pair: Tuple[int, int]


@dataclass(frozen=True)
class IrredundancyResult:
    ok: bool
    witness: Optional[IrredundancyWitness] = None

    def __bool__(self) -> bool:
        return self.ok


def is_irredundant(array: OrthogonalArray, k: int) -> IrredundancyResult:
    """True iff removing any k columns leaves the rows pairwise distinct.

    On failure, the witness carries the lexicographically smallest offending
    removed-column set and the first duplicated row pair (i < j) under it:
    j is the first row that repeats an earlier one, and i that earlier row.
    """
    n = array.factors
    if not 0 <= k <= n:
        raise ParameterViolation(f"k {k} outside 0..{n}")
    levels_type = np.min_scalar_type(array.levels - 1)
    grid = np.asarray(array.rows, dtype=levels_type)
    for removed in combinations(range(n), k):
        keep = [j for j in range(n) if j not in removed]
        order, bounds = _group_rows(grid, keep)
        starts = bounds[:-1][bounds[1:] - bounds[:-1] > 1]
        if starts.size:
            # rows keep their index order inside a group, so each group's
            # second row is its first repeat
            first = starts[np.argmin(order[starts + 1])]
            pair = (int(order[first]), int(order[first + 1]))
            return IrredundancyResult(False,
                                      IrredundancyWitness(removed, pair))
    return IrredundancyResult(True)


def _group_rows(grid: np.ndarray,
                cols: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Group the rows of an unsigned-int grid by their values on `cols`.

    Returns the stable order that sorts the rows by those values and the
    group boundaries in it: group g is ``order[bounds[g]:bounds[g + 1]]``,
    its rows in ascending index order.  The selected cells are written as
    big-endian bytes and packed eight to a 64-bit sort key, so no base-d
    code of the row is ever formed and no column count or level count can
    overflow.  With no columns, all rows form one group.
    """
    r = grid.shape[0]
    cells = grid[:, list(cols)]
    raw = cells.astype(cells.dtype.newbyteorder(">"), order="C",
                      copy=False).view(np.uint8)
    packed = np.zeros((r, max(8, -(-raw.shape[1] // 8) * 8)), dtype=np.uint8)
    packed[:, :raw.shape[1]] = raw
    keys = packed.view(">u8")
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = (ordered[1:] != ordered[:-1]).any(axis=1).nonzero()[0] + 1
    return order, np.concatenate(([0], starts, [r]))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def rao_min_runs(n: int, d: int, k: int) -> int:
    """Lower bound on runs for an OA with n factors, d levels, strength k."""
    if n < 1 or d < 2 or not 0 <= k <= n:
        raise ParameterViolation(f"bad parameters n={n}, d={d}, k={k}")
    if k % 2 == 0:
        return sum(comb(n, i) * (d - 1) ** i for i in range(k // 2 + 1))
    u = (k - 1) // 2
    base = sum(comb(n, i) * (d - 1) ** i for i in range(u + 1))
    return base + comb(n - 1, u) * (d - 1) ** (u + 1)


def is_tight(array: OrthogonalArray) -> bool:
    """True iff the run count meets the minimal-runs bound at its strength."""
    k = array.strength if array.strength is not None else max_strength(array)
    return array.runs == rao_min_runs(array.factors, array.levels, k)


@dataclass(frozen=True)
class BoundReport:
    """Requested parameters, the minimal-runs value, and tightness."""

    parameters: Tuple[Tuple[str, int], ...]
    min_runs: int
    tight: Optional[bool] = None


def rao_report(n: int, d: int, k: int,
               array: Optional[OrthogonalArray] = None) -> BoundReport:
    value = rao_min_runs(n, d, k)
    tight = None if array is None else array.runs == value
    return BoundReport((("n", n), ("d", d), ("k", k)), value, tight)


def singleton_max_k(n: int) -> int:
    """Upper bound floor(n/2) on the uniformity order of an n-party state."""
    if n < 1:
        raise ParameterViolation("n must be >= 1")
    return n // 2


def gv_holds(n: int, k: int) -> bool:
    """Existence condition for two-level systems:
    sum_{j=0..k} 3**j * C(n, j) <= 2**n."""
    if n < 1 or k < 0:
        raise ParameterViolation(f"bad parameters n={n}, k={k}")
    return sum(3 ** j * comb(n, j) for j in range(k + 1)) <= 2 ** n


def qecc_singleton_holds(n: int, code_dim: int, distance: int, d: int = 2) -> bool:
    """Quantum Singleton inequality n - log_d(K) >= 2(D - 1), evaluated
    exactly as d**n >= K * d**(2(D-1))."""
    if n < 1 or code_dim < 1 or distance < 1 or d < 2:
        raise ParameterViolation("bad parameters")
    return d ** n >= code_dim * d ** (2 * (distance - 1))


class CeccResult(NamedTuple):
    holds: bool
    mds: bool


def cecc_singleton_holds(n: int, code_len: int, distance: int, d: int) -> CeccResult:
    """Classical bound n <= d**(K - D + 1); flags the equality (MDS) case."""
    if n < 1 or code_len < 1 or distance < 1 or d < 2:
        raise ParameterViolation("bad parameters")
    e = code_len - distance + 1
    if e < 0:
        return CeccResult(False, False)
    bound = d ** e
    return CeccResult(n <= bound, n == bound)


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def remove_columns(array: OrthogonalArray, cols: Iterable[int]) -> OrthogonalArray:
    """Drop the given 0-based columns; declared strength is not carried."""
    n = array.factors
    removed = set()
    for c in cols:
        if not 0 <= c < n:
            raise BadSubset(f"column {c} outside 0..{n - 1}")
        removed.add(c)
    keep = [j for j in range(n) if j not in removed]
    if not keep:
        raise EmptyResult("removing every column leaves nothing")
    rows = tuple(tuple(row[j] for j in keep) for row in array.rows)
    return OrthogonalArray(rows, array.levels)


def derive(array: OrthogonalArray, symbol: int) -> OrthogonalArray:
    """Keep rows whose first cell equals symbol, then drop the first column;
    an OA of strength k becomes one of strength k-1 with r/d runs."""
    if not 0 <= symbol < array.levels:
        raise SymbolOutOfRange(f"symbol {symbol} outside 0..{array.levels - 1}")
    if array.factors < 2:
        raise EmptyResult("cannot drop the only column")
    rows = tuple(row[1:] for row in array.rows if row[0] == symbol)
    if not rows:
        raise EmptyResult(f"no rows start with symbol {symbol}")
    declared = None if array.strength is None else max(array.strength - 1, 0)
    return OrthogonalArray(rows, array.levels, declared)


def _effective_strength(array: OrthogonalArray) -> int:
    return array.strength if array.strength is not None else max_strength(array)


def juxtapose(arrays: Sequence[OrthogonalArray]) -> OrthogonalArray:
    """Row-stack arrays with equal (N, d); the result carries the verified
    minimum of the input strengths."""
    if not arrays:
        raise WrongCount("need at least one array")
    n, d = arrays[0].factors, arrays[0].levels
    for a in arrays:
        if a.factors != n or a.levels != d:
            raise ShapeMismatch("arrays must agree in factors and levels")
    rows = tuple(row for a in arrays for row in a.rows)
    strength = min(_effective_strength(a) for a in arrays)
    return OrthogonalArray(rows, d, strength)


def extend_with_symbol(arrays: Sequence[OrthogonalArray]) -> OrthogonalArray:
    """Prepend symbol i to every row of the i-th array and stack; d arrays of
    shape (r, N) and common strength k give an OA(d*r, N+1, d, k)."""
    if not arrays:
        raise WrongCount("need d arrays")
    d = arrays[0].levels
    if len(arrays) != d:
        raise WrongCount(f"need exactly d={d} arrays, got {len(arrays)}")
    r, n = arrays[0].runs, arrays[0].factors
    for a in arrays:
        if a.levels != d or a.runs != r or a.factors != n:
            raise ShapeMismatch("arrays must share (runs, factors, levels)")
    strength = min(_effective_strength(a) for a in arrays)
    rows = tuple((i,) + row for i, a in enumerate(arrays) for row in a.rows)
    return OrthogonalArray(rows, d, strength)


def _check_permutation(spec: Sequence[int], size: int, what: str) -> Tuple[int, ...]:
    perm = tuple(int(x) for x in spec)
    if sorted(perm) != list(range(size)):
        raise NotAPermutation(f"{what} spec {perm} is not a permutation of 0..{size - 1}")
    return perm


def permute_rows(array: OrthogonalArray, spec: Sequence[int]) -> OrthogonalArray:
    perm = _check_permutation(spec, array.runs, "row")
    rows = tuple(array.rows[i] for i in perm)
    return OrthogonalArray(rows, array.levels, array.strength)


def permute_columns(array: OrthogonalArray, spec: Sequence[int]) -> OrthogonalArray:
    perm = _check_permutation(spec, array.factors, "column")
    rows = tuple(tuple(row[j] for j in perm) for row in array.rows)
    return OrthogonalArray(rows, array.levels, array.strength)


def permute_levels(array: OrthogonalArray,
                   spec: Sequence[Sequence[int]]) -> OrthogonalArray:
    """Apply a per-column relabeling of 0..d-1 (one permutation per column)."""
    if len(spec) != array.factors:
        raise NotAPermutation(
            f"need one level permutation per column ({array.factors}), got {len(spec)}")
    perms = [_check_permutation(p, array.levels, f"level (column {j})")
             for j, p in enumerate(spec)]
    rows = tuple(tuple(perms[j][cell] for j, cell in enumerate(row))
                 for row in array.rows)
    return OrthogonalArray(rows, array.levels, array.strength)
