"""Orthogonal arrays: strength, index, irredundancy, transformations, bounds.

An OA(r, N, d, k) is an r x N grid over symbols 0..d-1 in which every r x k
column subarray contains each k-tuple exactly lambda = r/d**k times.  The
array type is immutable; transformation functions return new arrays.

The private kernels below serve every scan over the C(N, k) column
subsets, here and in `states` and `phases`.  The
subsets are taken a block at a time (about 2**15 subset x row cells), and
each block's kept-word codes are one integer array sorted once along the
rows: its run lengths are the word counts (strength).  Row pairs that
differ on at most k columns are found once, without an r x r scan
(irredundancy, and the off-diagonal reduction cells).  No array has d**k
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

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
    """True iff every k-column projection contains each k-tuple r/d**k times.

    A block of column subsets at a time, each subset's kept-word codes
    (`_kept_codes`) are sorted; strength k holds iff every sorted row is
    r/d**k copies of 0..d**k - 1.  The check stops at the first block with
    a failing subset.  d**k <= r whenever codes are formed, so they cannot
    overflow for any level count.
    """
    n = array.factors
    if not 0 <= k <= n:
        raise ParameterViolation(f"strength {k} outside 0..{n}")
    if k == 0:
        return True
    r, d = array.runs, array.levels
    if r % d ** k != 0:
        return False
    grid = _array_grid(array)
    every = np.repeat(np.arange(d ** k), r // d ** k)
    for subsets in _subset_blocks(n, k, r):
        codes = _kept_codes(grid, d, subsets)
        codes.sort(axis=1)
        if (codes != every).any():
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

    Two rows collide with k columns removed iff they differ on at most k
    columns, so the array is irredundant at k iff `_close_pairs` finds no
    pair.  On failure, the witness carries the lexicographically smallest
    offending removed-column set and the first duplicated row pair (i < j)
    under it: j is the first row that repeats an earlier one, and i that
    earlier row.
    """
    n = array.factors
    if not 0 <= k <= n:
        raise ParameterViolation(f"k {k} outside 0..{n}")
    grid = _array_grid(array)
    u, v = _close_pairs(grid, k)
    if not len(u):
        return IrredundancyResult(True)
    # the smallest removed set holding a pair's differing columns adds the
    # smallest other columns; among sets of one size, the smallest is the
    # one whose indicator row is largest read from column 0
    differ = grid[u] != grid[v]
    spare = k - differ.sum(axis=1)
    removed = differ | (~differ & (np.cumsum(~differ, axis=1)
                                   <= spare[:, None]))
    smallest = removed[np.lexsort(removed.T[::-1])[-1]]
    removed_cols = tuple(int(c) for c in np.flatnonzero(smallest))
    order, bounds = _group_rows(grid, np.flatnonzero(~smallest))
    starts = bounds[:-1][bounds[1:] - bounds[:-1] > 1]
    # rows keep their index order inside a group, so each group's second
    # row is its first repeat
    first = starts[np.argmin(order[starts + 1])]
    pair = (int(order[first]), int(order[first + 1]))
    return IrredundancyResult(False, IrredundancyWitness(removed_cols, pair))


# ---------------------------------------------------------------------------
# kernels: row grouping, kept-word codes per block of subsets, close pairs
# ---------------------------------------------------------------------------

#: Cells (subsets x rows) of one block of kept-word codes; C(N, k) subsets
#: are certified one block at a time.
_BLOCK_CELLS = 1 << 15


def _array_grid(array: OrthogonalArray) -> np.ndarray:
    """The array's rows as an r x N grid of the smallest unsigned type."""
    return np.asarray(array.rows, dtype=np.min_scalar_type(array.levels - 1))


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


def _pairs(order: np.ndarray,
           bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every row pair (u, v) that shares a group of `_group_rows`, u listed
    before v in the group (so u < v); there are sum(g * (g - 1) / 2)."""
    if len(bounds) == len(order) + 1:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    # the row at sorted position p pairs with the rest of its group after p
    later = (np.repeat(bounds[1:], bounds[1:] - bounds[:-1])
             - np.arange(len(order)) - 1)
    first = np.repeat(np.arange(len(order)), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    return order[first], order[first + 1 + offset]


def _subset_blocks(n: int, k: int, r: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as (b, k) index
    arrays of about _BLOCK_CELLS / r subsets each; C(n, k) is never
    listed whole."""
    size = max(1, _BLOCK_CELLS // r)
    subsets = combinations(range(n), k)
    while block := list(islice(subsets, size)):
        yield np.array(block, dtype=np.intp).reshape(len(block), k)


def _kept_codes(grid: np.ndarray, d: int, subsets: np.ndarray) -> np.ndarray:
    """(b, r) codes of each row's kept word under each subset of a block.

    Codes are the base-d value of the kept word, so they order as the words
    do.  They are int32 when d**k < 2**31 and int64 otherwise; before a
    fold could overflow int64, each subset's codes are replaced by their
    dense ranks (< r), which keeps the order and the equalities.
    """
    b, k = subsets.shape
    dtype = np.int32 if d ** k < 2 ** 31 else np.int64
    limit = np.iinfo(dtype).max
    codes = np.zeros((b, grid.shape[0]), dtype=dtype)
    top = 1  # codes are < top
    for j in range(k):
        if top * d > limit:
            order = np.argsort(codes, axis=1)
            ordered = np.take_along_axis(codes, order, axis=1)
            ranks = np.zeros_like(codes)
            ranks[:, 1:] = np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1)
            np.put_along_axis(codes, order, ranks, axis=1)
            top = grid.shape[0]
        codes *= d
        codes += grid[:, subsets[:, j]].T
        top *= d
    return codes


def _word_counts(codes: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(distinct, least, most): per row of `codes`, the number of distinct
    codes and the smallest and largest number of times one occurs.  Sorts
    `codes` in place along the rows, then reads the run lengths of the rows
    that repeat a code (the others have least = most = 1)."""
    b, r = codes.shape
    codes.sort(axis=1)
    starts = np.ones((b, r), dtype=bool)
    starts[:, 1:] = codes[:, 1:] != codes[:, :-1]
    distinct = starts.sum(axis=1)
    least, most = np.ones(b, dtype=np.intp), np.ones(b, dtype=np.intp)
    repeats = distinct < r
    if repeats.any():
        rows = starts[repeats]
        where = np.flatnonzero(rows)
        lengths = np.diff(where, append=rows.size)
        first = np.cumsum(distinct[repeats]) - distinct[repeats]
        least[repeats] = np.minimum.reduceat(lengths, first)
        most[repeats] = np.maximum.reduceat(lengths, first)
    return distinct, least, most


def _close_pairs(grid: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every row pair (u < v) that differs on at most k columns, once each.

    Split the columns into k + 1 disjoint blocks; two rows that differ on at
    most k columns agree on all of one block, so they share a `_group_rows`
    group of it.  Each block's candidates are filtered by distance and kept
    only if the block is the first one they agree on, so no pair is found
    twice: O(r log r + candidates) time, never r x r.
    """
    blocks = np.array_split(np.arange(grid.shape[1]), k + 1)
    found = []
    for b, cols in enumerate(blocks):
        u, v = _pairs(*_group_rows(grid, cols))
        differ = grid[u] != grid[v]
        near = differ.sum(axis=1) <= k
        for earlier in blocks[:b]:
            near &= differ[:, earlier].any(axis=1)
        found.append((u[near], v[near]))
    return tuple(np.concatenate(side) for side in zip(*found))


def _subset_cells(grid: np.ndarray, d: int, k: int
                  ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Blocks of k-subsets with the off-diagonal cells of their reductions.

    A reduction's cell (a, a') with a != a' is fed by the row pairs that
    agree on every dropped column and have kept words a and a': the close
    pairs (`_close_pairs`) whose differing columns all lie in the subset.
    Yields, per block of `_subset_blocks`, ``(subsets, codes, sub, u, v,
    bounds)``: `codes` as from `_kept_codes`; each incidence is a pair
    (u, v) inside subset ``subsets[sub]``, oriented so that
    ``codes[sub, u] < codes[sub, v]``; incidences are sorted by (sub, code
    of u, code of v, u), and cell c is incidences ``bounds[c]:bounds[c +
    1]``.  Rows ordered as their words (a state's terms are) thus list a
    cell's pairs in the order of their dropped-column words.
    """
    r, n = grid.shape
    u, v = _close_pairs(grid, k)
    if len(u):
        # group the pairs by their set of differing columns (their support)
        differ = np.packbits(grid[u] != grid[v], axis=1)
        order, owned = _group_rows(differ, range(differ.shape[1]))
        u, v = u[order], v[order]
        support = differ[order[owned[:-1]]]
    for subsets in _subset_blocks(n, k, r):
        codes = _kept_codes(grid, d, subsets)
        if not len(u):  # no off-diagonal cell anywhere
            none = np.zeros(0, dtype=np.intp)
            yield subsets, codes, none, none, none, np.zeros(1, dtype=np.intp)
            continue
        member = np.zeros((len(subsets), n), dtype=bool)
        np.put_along_axis(member, subsets, True, axis=1)
        # a support lies in a subset iff none of its columns is dropped
        dropped = ~np.packbits(member, axis=1)
        hit, sub = np.nonzero(~(support[:, None] & dropped).any(axis=2))
        many = owned[hit + 1] - owned[hit]
        pair = (np.arange(many.sum())
                + np.repeat(owned[hit] - (np.cumsum(many) - many), many))
        sub = np.repeat(sub, many)
        pu, pv = u[pair], v[pair]
        cu, cv = codes[sub, pu], codes[sub, pv]
        swap = cu > cv
        low, high = np.where(swap, cv, cu), np.where(swap, cu, cv)
        pu, pv = np.where(swap, pv, pu), np.where(swap, pu, pv)
        order = np.lexsort((pu, high, low, sub))
        sub, low, high, pu, pv = (a[order] for a in (sub, low, high, pu, pv))
        new = np.ones(len(sub), dtype=bool)
        new[1:] = ((sub[1:] != sub[:-1]) | (low[1:] != low[:-1])
                   | (high[1:] != high[:-1]))
        yield subsets, codes, sub, pu, pv, np.append(np.flatnonzero(new), len(sub))


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
