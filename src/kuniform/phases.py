"""Sign fixing: make every k-column reduction diagonal with +/-1 phases.

For an array of strength k whose rows are not pairwise distinct off every
kept k-subset, the off-diagonal reduction cells receive contributions from
row pairs that agree on the dropped columns.  With +/-1 phases, a cell fed
by exactly two pairs {(i, j), (l, m)} vanishes iff

    alpha_i + alpha_j + alpha_l + alpha_m = 1  (mod 2),

where the phase of row t is (-1)**alpha_t: one parity constraint per
two-pair cell, a linear system over GF(2).  A cell fed by an odd number of
pairs admits no +/-1 solution; cells fed by four or more fall outside the
linear derivation and go to a bounded exhaustive search (at most 21 rows).
The cells of `oa._subset_cells` (the row pairs that differ on at most k
columns, all kept, grouped per (subset, cell)) are walked once into one
table of arrays, whose pair counts decide.  The pair census of the
strength check (`oa._strength`), if any, lists the pairs and certifies the
repaired state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple, Union

import numpy as np

from .errors import (DuplicateRows, NotAnOAAtStrength, OddContributions,
                     ParameterViolation, PostconditionFailed, Unsupported,
                     UnsupportedMultiplicity)
from .oa import (_BLOCK_CELLS, OrthogonalArray, _group_rows, _strength,
                 _subset_cells)
from .states import (DEFAULT_TOL, PureState, _certifies, digits_to_word,
                     state_from_oa)

EXHAUSTIVE_ROW_LIMIT = 21


class _InfeasibleType:
    """Singleton result meaning: the sign system has no solution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infeasible"

    def __bool__(self) -> bool:
        return False


Infeasible = _InfeasibleType()


@dataclass(frozen=True)
class SignConstraint:
    """sum of alpha over `variables` = `parity` (mod 2), derived from one
    off-diagonal cell of one kept subset (the provenance fields)."""

    variables: Tuple[int, ...]
    parity: int
    kept: Tuple[int, ...]
    cell: Tuple[str, str]


@dataclass(frozen=True)
class SignConstraintSystem:
    variable_count: int
    constraints: Tuple[SignConstraint, ...]

    def satisfied_by(self, bits) -> bool:
        """True iff the bits satisfy every constraint: one 0 or 1 per
        variable, or an integer bitmask (not bool) whose bit i is variable i."""
        r = self.variable_count
        if isinstance(bits, (int, np.integer)) and not isinstance(bits, bool):
            if not 0 <= int(bits) < 1 << r:
                raise ParameterViolation(f"bitmask {bits} outside 0..2**{r} - 1")
            bits = [(int(bits) >> i) & 1 for i in range(r)]
        values = list(bits) if np.iterable(bits) else []
        if len(values) != r or any(b not in (0, 1) for b in values):
            raise ParameterViolation(
                f"need a bitmask or {r} bits, each 0 or 1, got {bits!r}")
        return all(
            sum(values[v] for v in c.variables) % 2 == c.parity
            for c in self.constraints)


@dataclass(frozen=True)
class SignSolution:
    """Bit per row (alpha_0 = 0 gauge); phase of row i is (-1)**assignment[i]."""

    assignment: Tuple[int, ...]

    @property
    def phases(self) -> Tuple[float, ...]:
        return tuple(1.0 if b == 0 else -1.0 for b in self.assignment)


class _CellTable(NamedTuple):
    """The off-diagonal cells fed by a row pair, in (kept, cell) order:
    cell c of kept subset `kept[c]` is labelled by the kept words of rows
    `low[c]` and `high[c]` (smaller first) and fed by `count[c]` row
    pairs, its run of the pairs (`i`, `j`): i < j, ascending in the cell."""

    kept: np.ndarray
    low: np.ndarray
    high: np.ndarray
    count: np.ndarray
    i: np.ndarray
    j: np.ndarray


def _cell_table(array: OrthogonalArray, k: int, close=None) -> _CellTable:
    """The cells of `oa._subset_cells`, walked once into a `_CellTable`;
    `close`: the close pairs at distance <= k, if a pair census has them."""
    blocks = []
    for subsets, _, sub, u, v, bounds in _subset_cells(array.grid,
                                                       array.levels, k, close):
        first, count = bounds[:-1], np.diff(bounds)
        i, j = np.minimum(u, v), np.maximum(u, v)
        order = np.lexsort((j, i, np.repeat(np.arange(len(count)), count)))
        blocks.append((subsets[sub[first]], u[first], v[first], count,
                       i[order], j[order]))
    return _CellTable(*map(np.concatenate, zip(*blocks)))


def _cells(array: OrthogonalArray, k: int, table=None):
    """Yield (kept, cell, pairs) for each cell of `table` (by default the
    array's `_cell_table` at k): its kept subset, the kept words that
    label it and its list of pairs."""
    kept, low, high, count, i, j = table or _cell_table(array, k)
    pairs, start = list(zip(i.tolist(), j.tolist())), 0
    for cols, a, b, size in zip(kept.tolist(), low.tolist(), high.tolist(),
                                count.tolist()):
        yield (tuple(cols), (digits_to_word(array.grid[a, cols].tolist()),
                             digits_to_word(array.grid[b, cols].tolist())),
               pairs[start:start + size])
        start += size


def _checked(array: OrthogonalArray, k: int) -> tuple:
    """(table, census): the checks of the array and k, then its
    `_cell_table` at k and the pair census `oa._strength` took, if any,
    its pairs renumbered into the word order of the array's state (the
    duplicate-row check's sort), so that it certifies that state."""
    n, r, grid = array.factors, array.runs, array.grid
    if not 1 <= k <= n / 2:
        raise ParameterViolation(
            f"sign fixing requires 1 <= k <= N/2, got k={k}, N={n}")
    strong, census = _strength(grid, array.levels, k, reach=k,
                               proven=array.strength or 0)
    if not strong:
        raise NotAnOAAtStrength(f"array does not have strength {k}")
    order, bounds = _group_rows(grid, range(n))
    if len(bounds) <= r:
        raise DuplicateRows("array has repeated rows")
    table = _cell_table(array, k, None if census is None else census.pairs)
    if census is not None:  # its pairs (u < v) renumbered into word order
        rank = np.empty(r, dtype=np.intp)
        rank[order] = np.arange(r)  # array row order[t] is the state's term t
        u, v, support = census.pairs
        u, v = rank[u], rank[v]
        census = census._replace(pairs=(np.minimum(u, v), np.maximum(u, v),
                                        support))
    return table, census


def _system(array: OrthogonalArray, k: int, table) -> SignConstraintSystem:
    """The table's parity constraints; raises at the first cell not of two pairs."""
    constraints = []
    for kept, cell, pairs in _cells(array, k, table):
        if len(pairs) % 2 == 1:
            raise OddContributions(
                f"cell {cell} of kept subset {kept} receives {len(pairs)} "
                "row pairs; no +/-1 phases can cancel it")
        if len(pairs) >= 4:
            raise UnsupportedMultiplicity(
                f"cell {cell} of kept subset {kept} receives {len(pairs)} "
                "row pairs; beyond the two-pair linear treatment")
        (i, j), (l, m) = pairs
        constraints.append(
            SignConstraint(tuple(sorted({i, j} ^ {l, m})), 1, kept, cell))
    return SignConstraintSystem(array.runs, tuple(constraints))


def constraint_system(array: OrthogonalArray, k: int) -> SignConstraintSystem:
    """Extract the parity constraints for all kept k-subsets.

    At the first cell, in (kept, cell) order, fed by an odd number of row
    pairs (no +/-1 assignment can cancel it) or by four or more (not a
    linear condition), raises OddContributions or UnsupportedMultiplicity.
    """
    return _system(array, k, _checked(array, k)[0])


def solve_signs(system: SignConstraintSystem) -> Union[SignSolution, _InfeasibleType]:
    """Gaussian elimination over GF(2) with bitmask rows.

    alpha_0 is forced to 0 (every constraint has an even variable count, so
    the global flip is a symmetry and the gauge never causes inconsistency
    on its own); free variables are set to 0.  Returns Infeasible on an
    inconsistent system.
    """
    r = system.variable_count
    if r < 1:
        raise ParameterViolation("need at least one variable")
    rows = [(1, 0)]  # gauge: alpha_0 = 0
    for c in system.constraints:
        if c.parity not in (0, 1):
            raise ParameterViolation(f"parity {c.parity} is not 0 or 1")
        mask = 0
        for v in c.variables:
            if not 0 <= v < r:
                raise ParameterViolation(f"variable {v} outside 0..{r - 1}")
            if (mask >> v) & 1:
                raise ParameterViolation(f"variable {v} repeats in {c.variables}")
            mask |= 1 << v
        rows.append((mask, c.parity))

    pivots: dict = {}  # pivot bit -> (mask, parity)
    for mask, parity in rows:
        for bit, (pmask, pparity) in pivots.items():
            if (mask >> bit) & 1:
                mask ^= pmask
                parity ^= pparity
        if mask == 0:
            if parity:
                return Infeasible
            continue
        bit = (mask & -mask).bit_length() - 1
        for other, (omask, oparity) in list(pivots.items()):
            if (omask >> bit) & 1:
                pivots[other] = (omask ^ mask, oparity ^ parity)
        pivots[bit] = (mask, parity)

    assignment = [0] * r
    for bit, (_, parity) in pivots.items():
        assignment[bit] = parity  # non-pivot variables in the row are free = 0
    solution = SignSolution(tuple(assignment))
    if not system.satisfied_by(solution.assignment):
        raise PostconditionFailed("eliminated signs violate a constraint")
    return solution


def _exhaustive_search(r: int, table: _CellTable
                       ) -> Union[SignSolution, _InfeasibleType]:
    """The smallest sign bitmask (alpha_0 = 0) of r rows cancelling every
    cell of `table`; Infeasible when none of the 2**(r-1) does.  The even
    bitmasks are walked in ascending chunks (2**10, then doubling up to
    `_BLOCK_CELLS`), each filtered cell by cell, so the first chunk with a
    survivor ends the search and one chunk is held."""
    flips = (1 << table.i | 1 << table.j).astype(np.uint64)  # one per pair
    cells = list(zip(np.split(flips, np.cumsum(table.count)[:-1]),
                     table.count.tolist()))
    start, size, end = 0, 1 << 10, 1 << (r - 1)
    while start < end:
        stop = min(start + size, end)
        candidates = np.arange(start, stop, dtype=np.uint64) * 2  # bit 0 clear
        for masks, count in cells:
            odd = np.zeros(candidates.shape, dtype=np.uint8)
            for m in masks:  # pair (i, j) flips sign iff alpha_i != alpha_j
                odd += np.bitwise_count(candidates & m) & 1
            candidates = candidates[2 * odd == count]  # an odd cell keeps none
            if candidates.size == 0:
                break
        else:
            best = int(candidates[0])
            return SignSolution(tuple((best >> i) & 1 for i in range(r)))
        start, size = stop, min(2 * size, _BLOCK_CELLS)
    return Infeasible


def fix_state(array: OrthogonalArray, k: int) -> Union[PureState, _InfeasibleType]:
    """Return a +/-1-phase state over the array's rows whose k-uniformity
    certifies, or Infeasible when no such signs exist.

    Decided from the cell table's pair counts, in this order: a cell fed by
    an odd number of pairs is Infeasible; else a cell of four or more pairs
    sends r <= 21 rows to the exhaustive search (the smallest sign vector)
    and raises Unsupported beyond that; else the GF(2) system is solved.
    """
    table, census = _checked(array, k)
    if (table.count % 2).any():
        return Infeasible
    if (table.count >= 4).any():
        if array.runs > EXHAUSTIVE_ROW_LIMIT:
            raise Unsupported("cell multiplicity beyond the linear treatment and "
                              f"{array.runs} rows exceed the exhaustive-search "
                              f"limit {EXHAUSTIVE_ROW_LIMIT}")
        solution = _exhaustive_search(array.runs, table)
    else:
        solution = solve_signs(_system(array, k, table))
    if solution is Infeasible:
        return Infeasible
    state = state_from_oa(array, solution.phases)
    if not _certifies(state, k, DEFAULT_TOL, census)[0]:
        raise PostconditionFailed(f"repaired state does not certify as {k}-uniform")
    return state
