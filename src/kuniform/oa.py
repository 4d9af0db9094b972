"""Orthogonal arrays: strength, index, irredundancy, transformations, bounds.

An OA(r, N, d, k) is an r x N grid over symbols 0..d-1 in which every choice
of k columns shows each k-tuple exactly lambda = r/d**k times.  The array
type is immutable; transformation functions return new arrays.

The private kernels below serve every certification, here and in `states`,
`phases`, `graphs` and the CLI.  Two ways answer the same questions:

* The block scan goes over the C(N, k) column subsets, a block at a time
  (about 2**15 subset x row cells); each block's kept-word codes are one
  integer array sorted once along the rows, whose run lengths are the word
  counts (strength).  Row pairs that differ on at most k columns (close
  pairs: irredundancy, and the off-diagonal reduction cells) are found once
  each with the columns they differ on, by one sort of the rows under
  k + 1 column blocks, without an r x r scan (`_close_pairs`).
* The pair census (`_pair_census`) compares every row pair once, on the
  rows packed into 64-bit words, and returns their distance distribution
  A_0..A_N with the close pairs.  Strength t holds iff
  sum_i A_i K_j(i) = 0 for j = 1..t, K_j the Krawtchouk polynomials
  (Delsarte 1973; Hedayat-Sloane-Stufken ch. 4), for any array, repeated
  rows included (`_delsarte_strength`, in exact integers); the smallest
  distance between two rows bounds irredundancy.

The census costs about r**2 words word operations against C(N, k) r cells
for the scan, so it runs where r * words < C(N, k) (`_census_pays`): many
columns and few rows.  A caller that also needs the close pairs takes it
as well where all r**2 words fit half a `_BLOCK_CELLS` chunk and d**k
divides r: there numpy call overhead, not elementwise work, decides; the
census replaces `_close_pairs`, and the scan too where it decides.
Elsewhere the scan runs.  No array has d**k entries.  Every module asks
`_strength` (strength k) and `_separation` (row distance), which choose.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, combinations, islice
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


class OrthogonalArray:
    """Immutable r x N symbol grid with an optional declared strength.

    `rows` is a sequence of equal-length integer rows or a 2-D integer
    ndarray.  The array is stored only as `grid`, a read-only array of the
    smallest unsigned type holding levels - 1; `rows` (tuples of Python
    ints) is built from it on first use.

    A declared strength is verified at construction time (and the index
    r/d**k must be a positive integer); passing strength=None skips that.
    So a declared strength is always a proven one: the transformations
    below carry it to their results by the theorems they rest on, and the
    constructions prove theirs by a certificate (see `_certified`).
    Row order is significant and preserved: sign-fixing indexes phase
    variables by row position.
    """

    def __init__(self, rows, levels: int,
                 strength: Optional[int] = None) -> None:
        if not 2 <= levels <= 1 << 64:
            raise ParameterViolation(f"levels must be in 2..2**64, got {levels}")
        try:
            cells = np.asarray(rows)
        except ValueError:
            raise ShapeMismatch("ragged rows") from None
        if not len(cells):
            raise ParameterViolation("an array needs at least one row")
        if cells.ndim != 2:
            raise ShapeMismatch("ragged rows")
        if not cells.shape[1]:
            raise ParameterViolation("an array needs at least one column")
        low, high = cells.min(), cells.max()
        if low < 0 or high >= levels:
            raise SymbolOutOfRange(
                f"symbol {low if low < 0 else high} outside 0..{levels - 1}")
        self._store(cells, levels, strength)
        if strength is not None:
            k = strength
            r, n = self.grid.shape
            if not 0 <= k <= n:
                raise ParameterViolation(f"declared strength {k} outside 0..{n}")
            if r % levels ** k != 0:
                raise NotAnOAAtStrength(
                    f"{r} runs cannot give an integer index at strength {k}")
            if not verify_strength(self, k):
                raise NotAnOAAtStrength(f"rows do not have strength {k}")

    def _store(self, cells: np.ndarray, levels: int,
               strength: Optional[int]) -> None:
        """Set the fields; `cells` is a valid 2-D grid of symbols."""
        grid = cells.astype(np.min_scalar_type(levels - 1), order="C")
        grid.flags.writeable = False
        self.__dict__.update(grid=grid, levels=levels, strength=strength)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return OrthogonalArray, (self.grid, self.levels, self.strength)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.levels == other.levels and self.strength == other.strength
                and np.array_equal(self.grid, other.grid))

    def __hash__(self) -> int:
        return hash((self.grid.shape, self.grid.tobytes(), self.levels,
                     self.strength))

    @cached_property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(map(tuple, self.grid.tolist()))

    @property
    def runs(self) -> int:
        return self.grid.shape[0]

    @property
    def factors(self) -> int:
        return self.grid.shape[1]

    @property
    def index(self) -> Optional[int]:
        """lambda = r / d**k at the declared strength, if one was declared."""
        if self.strength is None:
            return None
        return self.runs // self.levels ** self.strength

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(self.grid[:, j].tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "?" if self.strength is None else self.strength
        return f"OA({self.runs},{self.factors},{self.levels},{k})"


def _certified(grid: np.ndarray, levels: int,
               strength: Optional[int]) -> OrthogonalArray:
    """An array whose strength is already proven, built without the
    brute-force check.  Only for grids this library made: a transformation
    of a proven array, or a construction that passed its own certificate.
    Outside input goes through `OrthogonalArray`."""
    array = object.__new__(OrthogonalArray)
    array._store(grid, levels, strength)
    return array


# ---------------------------------------------------------------------------
# strength / index / irredundancy
# ---------------------------------------------------------------------------

def verify_strength(array: OrthogonalArray, k: int) -> bool:
    """True iff every k-column projection holds each k-tuple r/d**k times
    (`_strength`)."""
    return _strength(array.grid, array.levels, k)[0]


def _strength(grid: np.ndarray, d: int, k: int, reach: int = -1,
              proven: int = 0) -> Tuple[bool, Optional[_Census]]:
    """(holds, census): whether the rows over d levels have strength k,
    and the pair census taken on the way, if any; the one place that
    decides a strength.  A caller that needs the close pairs at distance
    <= reach (reach >= 0) takes the census first, where it pays.  Then
    k <= `proven` answers True and r not a multiple of d**k False.  A
    caller of reach < 0 then takes the census where it pays; with one,
    Delsarte's test answers.  Otherwise the scan: per block of subsets,
    the sorted kept-word codes (`_kept_codes`; d**k <= r, so they cannot
    overflow) must be r/d**k copies of 0..d**k - 1.  It stops at the
    first failing block.
    """
    r, n = grid.shape
    if not 0 <= k <= n:
        raise ParameterViolation(f"strength {k} outside 0..{n}")
    census = _census(grid, k, reach, d) if reach >= 0 else None
    if k <= proven:
        return True, census
    if r % d ** k:
        return False, census
    if reach < 0:
        census = _census(grid, k, reach, d)
    if census is not None:
        return census.strength(d, k) >= k, census
    every = np.repeat(np.arange(d ** k), r // d ** k)
    for subsets in _subset_blocks(n, k, r):
        codes = _kept_codes(grid, d, subsets)
        codes.sort(axis=1)
        if (codes != every).any():
            return False, None
    return True, None


def _separation(grid: np.ndarray, d: int, k: int,
                census: Optional[_Census] = None) -> int:
    """The smallest distance between two rows of proven strength k over d
    levels, capped at k + 1 (irredundancy at k' <= k is distance > k').
    At index unity (r = d**k) no two rows agree on k columns: the rows
    are an MDS code, at distance N - k + 1 (the Singleton bound;
    Hedayat-Sloane-Stufken ch. 4).  Otherwise from `census`, or a census
    where one pays, else from the close pairs at distance <= k."""
    r, n = grid.shape
    if r == d ** k:
        return min(n - k + 1, k + 1)
    if census is None:
        census = _census(grid, k, -1, d)
    if census is not None:
        return min(census.separation, k + 1)
    distance = np.bitwise_count(_close_pairs(grid, k)[2]).sum(axis=1)
    return int(distance.min()) if len(distance) else k + 1


def max_strength(array: OrthogonalArray) -> int:
    """Largest k with verify_strength true.  Strength is downward closed,
    so the walk starts at the declared strength, proven at construction,
    and stops at a k that fails or that r/d**k cannot reach.  At the first
    k where the pair census costs less than the scan, one census answers
    for every k by Delsarte's test."""
    return _max_strength(array)[0]


def _max_strength(array: OrthogonalArray) -> Tuple[int, Optional[_Census]]:
    """`max_strength`, and the pair census (reach -1) its walk took, if
    any, for callers that read more off it."""
    k, n = array.strength or 0, array.factors
    while k < n:
        holds, census = _strength(array.grid, array.levels, k + 1)
        if census is not None:
            return census.strength(array.levels, n), census
        if not holds:
            break
        k += 1
    return k, None


def oa_index(array: OrthogonalArray, k: int) -> int:
    """lambda = r / d**k; requires the array to actually have strength k."""
    proven = array.strength or 0
    if not _strength(array.grid, array.levels, k, proven=proven)[0]:
        raise NotAnOAAtStrength(f"array does not have strength {k}")
    return array.runs // array.levels ** k


def _effective_strength(array: OrthogonalArray) -> int:
    return array.strength if array.strength is not None else max_strength(array)


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
    offending removed-column set, found among the pairs' distinct supports,
    and the first duplicated row pair (i < j) under it: j is the first row
    that repeats an earlier one, and i that earlier row.
    """
    n = array.factors
    if not 0 <= k <= n:
        raise ParameterViolation(f"k {k} outside 0..{n}")
    grid = array.grid
    support = _close_pairs(grid, k)[2]
    if not len(support):
        return IrredundancyResult(True)
    # the smallest removed set holding a support adds the smallest other
    # columns; among sets of one size, the smallest is the one whose
    # indicator row is largest read from column 0
    order, bounds = _group_rows(support, range(support.shape[1]))
    differ = np.unpackbits(support[order[bounds[:-1]]], axis=1,
                           count=n).astype(bool)
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
#: are certified one block at a time.  Also the close-pair candidates of one
#: batch.
_BLOCK_CELLS = 1 << 15


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
    cells = grid.take(list(cols), axis=1)
    raw = cells.astype(cells.dtype.newbyteorder(">"), order="C",
                      copy=False).view(np.uint8)
    packed = np.zeros((r, max(8, -(-raw.shape[1] // 8) * 8)), dtype=np.uint8)
    packed[:, :raw.shape[1]] = raw
    keys = packed.view(">u8")
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = (ordered[1:] != ordered[:-1]).any(axis=1).nonzero()[0] + 1
    return order, np.concatenate(([0], starts, [r]))


def _pairs(order: np.ndarray, bounds: np.ndarray, start: int = 0,
           stop: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Every row pair (u, v) that shares a group of `_group_rows`, u listed
    before v in the group (so u < v); there are sum(g * (g - 1) / 2).
    With a range, only the pairs whose u sits at a sorted position in
    start..stop - 1, so ranges that split the positions split the pairs."""
    at = np.arange(start, len(order) if stop is None else stop)
    # the row at sorted position p pairs with the rest of its group after p
    later = bounds[np.searchsorted(bounds, at, side="right")] - at - 1
    before = np.cumsum(later) - later  # pairs of the earlier positions
    first = np.repeat(at, later)
    second = np.arange(len(first)) + np.repeat(at + 1 - before, later)
    return order[first], order[second]


def _subset_blocks(n: int, k: int, r: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, as (b, k) index
    arrays of about _BLOCK_CELLS / r subsets each; C(n, k) is never
    listed whole."""
    size = max(1, _BLOCK_CELLS // r)
    subsets = combinations(range(n), k)
    while block := list(islice(subsets, size)):
        flat = np.fromiter(chain.from_iterable(block), np.intp,
                           count=len(block) * k)
        yield flat.reshape(len(block), k)


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array replaced by its dense ranks (0 for its
    smallest value), which keep the row's order and equalities."""
    order = np.argsort(values, axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    ranks = np.zeros(values.shape, dtype=np.intp)
    ranks[:, 1:] = np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1)
    out = np.empty_like(ranks)
    np.put_along_axis(out, order, ranks, axis=1)
    return out


def _kept_codes(grid: np.ndarray, d: int, subsets: np.ndarray) -> np.ndarray:
    """(b, r) codes of each row's kept word under each subset of a block.

    Codes are the base-d value of the kept word, so they order as the words
    do.  They are int32 when d**k < 2**31 and int64 otherwise; before a
    fold could overflow int64, each subset's codes are replaced by their
    dense ranks (< r), which keeps the order and the equalities.  A uint64
    grid's symbols may not fit int64: its columns are replaced by their
    dense ranks first and folded in base r, so its codes keep the words'
    order and equalities but are no base-d values.
    """
    b, k = subsets.shape
    r = grid.shape[0]
    if grid.dtype == np.uint64:
        grid, d = _dense_ranks(grid.T).T, r
    dtype = np.int32 if d ** k < 2 ** 31 else np.int64
    limit = np.iinfo(dtype).max
    codes = np.zeros((b, r), dtype=dtype)
    top = 1  # codes are < top
    for j in range(k):
        if top * d > limit:
            codes[...] = _dense_ranks(codes)
            top = r
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


def _close_pairs(grid: np.ndarray, k: int) -> Tuple[np.ndarray, ...]:
    """(u, v, support): every row pair (u < v) that differs on at most k
    columns, once each, and the columns it differs on (its support) as one
    `np.packbits` row per pair, column 0 the top bit of byte 0.

    Split the columns into k + 1 contiguous blocks; two rows that differ on
    at most k columns agree on all of one block (multi-index hashing:
    Norouzi, Punjani and Fleet, CVPR 2012).  One `_group_rows` sort of the
    (k + 1) r keys (block, the row's cells in the block) groups the rows
    under every block at once.  The candidates, pairs that share a group,
    are taken `_BLOCK_CELLS` at a time (a sorted position whose partners
    alone are more is one batch) and filtered by distance, read from the
    rows packed into 64-bit words, whose differing lanes are the supports;
    a near pair is kept only under the first block its rows share, so none
    is found twice.  O(r (k + 1) log r + candidates) time, never r x r,
    and beyond the result at most one batch of candidates is held.
    """
    r, n = grid.shape
    blocks = k + 1
    size, extra = divmod(n, blocks)  # the first `extra` blocks have one more
    edges = [b * size + min(b, extra) for b in range(blocks + 1)]
    # key row b * r + u: block b, then row u's cells in it, zero-padded
    keys = np.zeros((blocks, r, 1 + size + (extra > 0)),
                    dtype=np.promote_types(grid.dtype, np.min_scalar_type(k)))
    keys[:, :, 0] = np.arange(blocks)[:, None]
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        keys[b, :, 1:1 + hi - lo] = grid[:, lo:hi]
    order, bounds = _group_rows(keys.reshape(blocks * r, -1),
                                range(keys.shape[2]))
    sizes = np.diff(bounds)
    group = np.empty(blocks * r, dtype=np.intp)
    group[order] = np.repeat(np.arange(len(sizes)), sizes)
    group = group.reshape(blocks, r)
    words, differ, supports = _lane_words(grid, 8 * grid.itemsize)
    # reach[p]: the candidates of the sorted positions before p
    reach = np.zeros(blocks * r + 1, dtype=np.intp)
    np.cumsum(np.repeat(bounds[1:], sizes) - np.arange(blocks * r) - 1,
              out=reach[1:])
    found, start = [_no_pairs(n)], 0
    while start < blocks * r:
        stop = max(start + 1, int(np.searchsorted(
            reach, reach[start] + _BLOCK_CELLS, side="right")) - 1)
        if reach[stop] > reach[start]:
            key_u, key_v = _pairs(order, bounds, start, stop)
            block, u = np.divmod(key_u, r)
            v = key_v - block * r
            lit = differ(words.take(u, axis=1) ^ words.take(v, axis=1))
            near = np.flatnonzero(np.bitwise_count(lit).sum(axis=0) <= k)
            if len(near):
                block, u, v = block[near], u[near], v[near]
                first = (group[:, u] == group[:, v]).argmax(axis=0) == block
                found.append((u[first], v[first],
                              supports(lit[:, near[first]])))
        start = stop
    return tuple(np.concatenate(side) for side in zip(*found))


def _lane_bits(grid: np.ndarray) -> int:
    """The narrowest symbol lanes: the fewest of 1, 2, 4 and 8 bits that
    hold a uint8 grid's symbols, else the width of the grid's type."""
    if grid.itemsize > 1:
        return 8 * grid.itemsize
    return 1 << (max(int(grid.max()), 1).bit_length() - 1).bit_length()


def _lane_words(grid: np.ndarray, bits: int):
    """(words, differ, supports): the rows packed for pair comparisons.

    `words` is a (words, r) array of 64-bit words holding each row's
    symbols in lanes of `bits` (at least `_lane_bits`), column 0 first,
    zero-padded to whole words: lanes narrower than a byte fill each byte
    from its top bits, wider ones are the grid's own integers.  `differ`
    turns x = a ^ b of such words into the top bit of each lane where a
    and b differ: a lane of x is nonzero iff ((x & low) + low | x) sets
    its top bit.  `supports` turns a (words, pairs) array of `differ`
    words into one `np.packbits` row per pair of its differing columns,
    column 0 the top bit of byte 0.
    """
    r, n = grid.shape
    size = -(-n * bits // 64)
    if bits >= 8:
        lanes = np.zeros((r, 64 // bits * size), dtype=grid.dtype)
        lanes[:, :n] = grid
    else:
        lanes = np.zeros((r, 8 * size), dtype=np.uint8)
        if bits == 1:
            lanes[:, :-(-n // 8)] = np.packbits(grid, axis=1)
        else:  # 8 // bits symbols a byte, the first in the top bits
            cells = np.zeros((r, 8 * size, 8 // bits), dtype=np.uint8)
            cells.reshape(r, -1)[:, :n] = grid
            for j in range(8 // bits):
                lanes |= cells[:, :, j] << (8 - bits - j * bits)
    top = np.uint64(((1 << 64) - 1) // ((1 << bits) - 1) << (bits - 1))
    low = ~top

    def differ(x: np.ndarray) -> np.ndarray:
        if bits == 1:  # a one-bit lane is its own top bit
            return x
        tops = x & low
        tops += low
        tops |= x
        tops &= top
        return tops

    def supports(lit: np.ndarray) -> np.ndarray:
        lit = np.ascontiguousarray(lit.T)
        if bits >= 8:
            return np.packbits(lit.view(grid.dtype)[:, :n] != 0, axis=1)
        # a sub-byte lane's top bit is bit c * bits of the row's bytes
        return np.packbits(np.unpackbits(lit.view(np.uint8), axis=1,
                                         count=n * bits)[:, ::bits], axis=1)
    return np.ascontiguousarray(lanes.view(np.uint64).T), differ, supports


def _no_pairs(n: int) -> Tuple[np.ndarray, ...]:
    """No close pairs of an n-column grid, as (u, v, support)."""
    none = np.zeros(0, dtype=np.intp)
    return none, none, np.zeros((0, -(-n // 8)), np.uint8)


def _census_pays(grid: np.ndarray, k: int, reach: int, d: int) -> bool:
    """True where the pair census costs less than the block scan at k, for
    a caller that needs the close pairs at distance <= reach (none for
    reach < 0) of rows over d levels.  A cost model, not a setting:

    * r**2 pair distances of `words` 64-bit words each (`_lane_words`)
      against C(N, k) subsets of r rows each, so r * words < C(N, k);
    * or, for a caller that needs the close pairs, every pair in half a
      `_BLOCK_CELLS` chunk (r**2 words <= 2**14) where strength k is
      possible (d**k divides r).  Its other way is `_close_pairs` and then
      the scan, whose numpy call overhead outweighs that much elementwise
      work; a whole chunk does not pay on states with few columns (the
      28,561 pair words of bush_oa(13, 2) take 1.2-1.4 times the scan's
      time).  Where d**k does not divide r, strength k fails, the census
      cannot certify and would only add its pass to the scan's.
    """
    r, n = grid.shape
    if not 0 <= k <= n:
        return False
    small = reach >= 0 and r % d ** k == 0

    def pays(words: int) -> bool:
        return (r * words < comb(n, k)
                or small and 2 * r * r * words <= _BLOCK_CELLS)

    # one-bit lanes take the fewest words: where even they do not pay,
    # the grid's largest symbol is not read
    return pays(-(-n // 64)) and pays(-(-n * _lane_bits(grid) // 64))


class _Census(NamedTuple):
    """What `_pair_census` reads off every row pair.

    `distances[i]` is A_i, the number of ordered row pairs at Hamming
    distance i, each row paired with itself included (so A_0 = r when no
    row repeats); `separation` is the smallest distance between two rows
    (0 when a row repeats, N + 1 for a single row); `pairs` are the close
    pairs at distance at most `reach`, as `_close_pairs` returns them."""

    distances: Tuple[int, ...]
    separation: int
    reach: int
    pairs: Tuple[np.ndarray, ...]

    def strength(self, d: int, upto: int) -> int:
        """The largest strength t <= upto of the rows over d levels."""
        return _delsarte_strength(self.distances, len(self.distances) - 1,
                                  d, upto)

    def close_pairs(self, k: int) -> Optional[Tuple[np.ndarray, ...]]:
        """The close pairs at distance <= k, for k >= `reach`; None when
        some lie beyond the census's reach."""
        beyond = self.distances[self.reach + 1:k + 1]
        return None if any(beyond) else self.pairs


def _pair_census(grid: np.ndarray, reach: int) -> _Census:
    """The rows' distance distribution and their close pairs at distance
    <= reach (none for reach < 0), from one pass over every row pair.

    Rows are compared as `_close_pairs` compares them, on their packed
    64-bit words (`_lane_words`), here in the narrowest lanes
    (`_lane_bits`), since the cost is in the words: a chunk of rows against
    every later row at a time, at most `_BLOCK_CELLS` pair words per chunk,
    so beyond the result one chunk is held.  A single chunk (r**2 words
    <= `_BLOCK_CELLS`, so every census of `_census_pays`' second clause)
    holds every pair in both orders, so its one histogram is the count.
    `differ` is the identity on one-bit lanes, and one-word rows need no
    word sum.
    O(r**2 words) time: run it only through `_census`.
    """
    r, n = grid.shape
    words, differ, supports = _lane_words(grid, _lane_bits(grid))
    count = np.zeros(n + 1, dtype=np.int64)  # ordered pairs per distance
    found, start = [_no_pairs(n)], 0
    while start < r:
        rows = max(1, _BLOCK_CELLS // ((r - start) * len(words)))
        stop = min(r, start + rows)
        # rows start..stop - 1 against rows start..r - 1: the pairs inside
        # the chunk come in both orders (and each row with itself), the
        # pairs with a later row once
        lit = differ(words[:, start:stop, None] ^ words[:, None, start:])
        if len(words) == 1:
            distance = np.bitwise_count(lit[0])
        else:
            distance = np.bitwise_count(lit).sum(axis=0,
                                                 dtype=np.min_scalar_type(n))
        inside = stop - start
        count += np.bincount(distance[:, :inside].ravel(), minlength=n + 1)
        if stop < r:
            count += 2 * np.bincount(distance[:, inside:].ravel(),
                                     minlength=n + 1)
        if reach >= 0:
            i, j = np.divmod(np.flatnonzero(distance <= reach), r - start)
            later = j > i
            if later.any():
                i, j = i[later], j[later]
                found.append((i + start, j + start, supports(lit[:, i, j])))
        start = stop
    hit = np.flatnonzero(count[1:])
    separation = 0 if count[0] > r else int(hit[0]) + 1 if len(hit) else n + 1
    return _Census(tuple(count.tolist()), separation, reach,
                   tuple(np.concatenate(side) for side in zip(*found)))


def _census(grid: np.ndarray, k: int, reach: int,
            d: int) -> Optional[_Census]:
    """`_pair_census(grid, reach)` where it costs less than the block scan
    at k for rows over d levels (`_census_pays`), else None: the one place
    that chooses."""
    return (_pair_census(grid, reach) if _census_pays(grid, k, reach, d)
            else None)


def _delsarte_strength(distances: Sequence[int], n: int, d: int,
                       upto: int) -> int:
    """The largest t <= upto with sum_i A_i K_j(i) = 0 for j = 1..t, where
    A = `distances` is an r-row array's distance distribution over d
    levels and K_j the Krawtchouk polynomial of length n: the array's
    strength (capped at upto), for any array, repeated rows included.

    Delsarte, Philips Res. Rep. Suppl. 10 (1973); Hedayat-Sloane-Stufken,
    Orthogonal Arrays, ch. 4.  The sum for j adds |sum over the rows of
    chi(row)|**2 over the characters chi of Z_d**n of weight j, and these
    all vanish for j = 1..t iff every t-column projection is uniform.
    Exact Python ints, K_j(i) by the three-term recurrence, only at the
    distances that occur.
    """
    at = [(i, a) for i, a in enumerate(distances) if a]
    before, krawtchouk = [0] * len(at), [1] * len(at)  # K_{j-1}, K_j
    for j in range(upto):
        # (j + 1) K_{j+1}(i) = ((d - 1)(n - j) + j - d i) K_j(i)
        #                      - (d - 1)(n - j + 1) K_{j-1}(i)
        before, krawtchouk = krawtchouk, [
            (((d - 1) * (n - j) + j - d * i) * now
             - (d - 1) * (n - j + 1) * then) // (j + 1)
            for (i, _), now, then in zip(at, krawtchouk, before)]
        if sum(a * value for (_, a), value in zip(at, krawtchouk)):
            return j
    return upto


def _subset_cells(grid: np.ndarray, d: int, k: int,
                  pairs: Optional[Tuple[np.ndarray, ...]] = None
                  ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Blocks of k-subsets with the off-diagonal cells of their reductions.

    A reduction's cell (a, a') with a != a' is fed by the row pairs that
    agree on every dropped column and have kept words a and a': the close
    pairs (`_close_pairs`, or `pairs` at distance <= k as it returns them)
    whose differing columns all lie in the subset.  Yields, per block of
    `_subset_blocks`, ``(subsets, codes, sub, u, v, bounds)``: `codes` as
    from `_kept_codes`; each incidence is a pair (u, v) inside subset
    ``subsets[sub]``, oriented so that ``codes[sub, u] < codes[sub, v]``;
    incidences are sorted by (sub, code of u, code of v, u), and cell c is
    incidences ``bounds[c]:bounds[c + 1]``.  Rows ordered as their words
    (a state's terms are) thus list a cell's pairs in the order of their
    dropped-column words.  The pairs' own order does not matter.
    """
    r, n = grid.shape
    u, v, support = _close_pairs(grid, k) if pairs is None else pairs
    if len(u):  # group the pairs by their support
        order, owned = _group_rows(support, range(support.shape[1]))
        u, v = u[order], v[order]
        support = support[order[owned[:-1]]]
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
    return array.runs == rao_min_runs(array.factors, array.levels,
                                      _effective_strength(array))


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
# transformations: a declared strength is carried by the theorem behind each
# one (permutations keep it, removing columns caps it at the columns left,
# derive lowers it by one, stacking keeps the minimum), never verified again
# ---------------------------------------------------------------------------

def remove_columns(array: OrthogonalArray, cols: Iterable[int]) -> OrthogonalArray:
    """Drop the given 0-based columns; a declared strength k becomes
    min(k, N') for the N' columns left."""
    n = array.factors
    keep = np.ones(n, dtype=bool)
    for c in cols:
        if not 0 <= c < n:
            raise BadSubset(f"column {c} outside 0..{n - 1}")
        keep[c] = False
    if not keep.any():
        raise EmptyResult("removing every column leaves nothing")
    declared = (None if array.strength is None
                else min(array.strength, int(keep.sum())))
    return _certified(array.grid[:, keep], array.levels, declared)


def derive(array: OrthogonalArray, symbol: int) -> OrthogonalArray:
    """Keep rows whose first cell equals symbol, then drop the first column;
    an OA of strength k becomes one of strength k-1 with r/d runs."""
    if not 0 <= symbol < array.levels:
        raise SymbolOutOfRange(f"symbol {symbol} outside 0..{array.levels - 1}")
    if array.factors < 2:
        raise EmptyResult("cannot drop the only column")
    grid = array.grid[array.grid[:, 0] == symbol, 1:]
    if not len(grid):
        raise EmptyResult(f"no rows start with symbol {symbol}")
    declared = None if array.strength is None else max(array.strength - 1, 0)
    return _certified(grid, array.levels, declared)


def juxtapose(arrays: Sequence[OrthogonalArray]) -> OrthogonalArray:
    """Row-stack arrays with equal (N, d); the result carries the minimum of
    the input strengths (every count of the stack is a sum of counts)."""
    if not arrays:
        raise WrongCount("need at least one array")
    n, d = arrays[0].factors, arrays[0].levels
    for a in arrays:
        if a.factors != n or a.levels != d:
            raise ShapeMismatch("arrays must agree in factors and levels")
    strength = min(_effective_strength(a) for a in arrays)
    return _certified(np.concatenate([a.grid for a in arrays]), d, strength)


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
    grid = np.column_stack((np.repeat(np.arange(d), r),
                            np.concatenate([a.grid for a in arrays])))
    return _certified(grid, d, strength)


def _integral(spec, values: np.ndarray, entries: Iterable) -> bool:
    """True when `values`, numpy's reading of `spec`, holds integers that
    were integers in `spec`: Python ints and numpy integers, not bools.
    numpy reads a bool among ints as an int, so the entry types of a spec
    that is no array are checked too; `entries` iterates them."""
    return values.dtype.kind in "iu" and (
        isinstance(spec, np.ndarray)
        or set(map(type, entries)).isdisjoint((bool, np.bool_)))


def _check_permutation(spec: Sequence[int], size: int, what: str) -> np.ndarray:
    """`spec` as an integer array; NotAPermutation unless it is a
    permutation of 0..size - 1 whose entries are integers."""
    perm = np.asarray(spec)
    integral = perm.ndim == 1 and _integral(spec, perm, spec)
    if not integral or perm.shape != (size,) or \
            not np.array_equal(np.sort(perm), np.arange(size)):
        shown = perm if integral else \
            np.atleast_1d(np.asarray(spec, dtype=object))
        raise NotAPermutation(f"{what} spec {tuple(shown.tolist())} is not a "
                              f"permutation of 0..{size - 1}")
    return perm


def permute_rows(array: OrthogonalArray, spec: Sequence[int]) -> OrthogonalArray:
    perm = _check_permutation(spec, array.runs, "row")
    return _certified(array.grid[perm], array.levels, array.strength)


def permute_columns(array: OrthogonalArray, spec: Sequence[int]) -> OrthogonalArray:
    perm = _check_permutation(spec, array.factors, "column")
    return _certified(array.grid[:, perm], array.levels, array.strength)


def permute_levels(array: OrthogonalArray,
                   spec: Sequence[Sequence[int]]) -> OrthogonalArray:
    """Apply a per-column relabeling of 0..d-1 (one permutation per column):
    level v of column j becomes spec[j][v].  The maps are checked as one
    (N, d) table; only when it fails is each column checked in turn, so
    that the first faulty one is named."""
    n, d = array.factors, array.levels
    if len(spec) != n:
        raise NotAPermutation(
            f"need one level permutation per column ({n}), got {len(spec)}")
    try:
        table = np.asarray(spec)
    except ValueError:  # ragged: some map has the wrong length
        table = None
    if table is None or table.shape != (n, d) or \
            not _integral(spec, table, chain.from_iterable(spec)) or \
            (np.sort(table, axis=1) != np.arange(d)).any():
        table = np.stack([_check_permutation(p, d, f"level (column {j})")
                          for j, p in enumerate(spec)])
    return _certified(table[np.arange(n), array.grid], d, array.strength)
