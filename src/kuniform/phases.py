"""Sign fixing: make every k-column reduction diagonal with +/-1 phases.

For an array of strength k whose rows are not pairwise distinct off every
kept k-subset, the off-diagonal reduction cells receive contributions from
row pairs that agree on the dropped columns.  With +/-1 phases, a cell fed
by exactly two pairs {(i, j), (l, m)} vanishes iff

    alpha_i + alpha_j + alpha_l + alpha_m = 1  (mod 2),

where the phase of row t is (-1)**alpha_t.  Collecting one such parity
constraint per two-pair cell gives a linear system over GF(2); solving it
(when consistent) produces a state whose k-uniformity then certifies.
Cells fed by an odd number of pairs admit no +/-1 solution at all; cells
fed by four or more pairs fall outside the linear derivation and are
handled by bounded exhaustive search (at most 21 rows): it returns the
smallest sign vector, walking the 2**(r-1) candidates in ascending chunks
and stopping at the first chunk with a solution, so only an Infeasible
answer sweeps them all, and it holds one chunk in memory.  The cells and
their pairs come from the block kernels of `oa` (`oa._subset_cells`): the
row pairs that differ on at most k columns, all kept, grouped per
(subset, cell); the strength check, and those pairs where a census lists
them, come from `oa._strength`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import tee
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from .errors import (
    DuplicateRows,
    NotAnOAAtStrength,
    OddContributions,
    ParameterViolation,
    PostconditionFailed,
    Unsupported,
    UnsupportedMultiplicity,
)
from .oa import (
    _BLOCK_CELLS,
    OrthogonalArray,
    _group_rows,
    _strength,
    _subset_cells,
)
from .states import PureState, _is_k_uniform, digits_to_word, state_from_oa

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
        """True iff the bit assignment (sequence or int bitmask) satisfies
        every constraint."""
        if isinstance(bits, int):
            if not 0 <= bits < 1 << self.variable_count:
                raise ParameterViolation(
                    f"bitmask {bits} outside 0..2**{self.variable_count} - 1")
            values = [(bits >> i) & 1 for i in range(self.variable_count)]
        else:
            values = [int(b) & 1 for b in bits]
            if len(values) != self.variable_count:
                raise ParameterViolation(
                    f"need {self.variable_count} bits, got {len(values)}")
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


def _cells(array: OrthogonalArray, k: int, close=None):
    """Yield (kept, cell, pairs) for each off-diagonal cell with at least
    one contributing row pair, in lexicographic (kept, cell) order; the
    pairs (i < j) of a cell ascend.  `close`: the close pairs at distance
    <= k, when a pair census has them."""
    grid = array.grid
    for subsets, _, sub, u, v, bounds in _subset_cells(grid, array.levels, k,
                                                       close):
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            kept = tuple(subsets[sub[start]].tolist())
            cell = tuple(digits_to_word(grid[row, list(kept)].tolist())
                         for row in (u[start], v[start]))
            pairs = sorted((min(i, j), max(i, j)) for i, j in
                           zip(u[start:stop].tolist(), v[start:stop].tolist()))
            yield kept, cell, pairs


def _checked_cells(array: OrthogonalArray, k: int) -> Iterator[tuple]:
    """`constraint_system`'s checks of the array and k, made at once; then
    the cells of `_cells`, lazily, so that a raising cell ends the walk.
    The census `oa._strength` takes, if any, lists the close pairs."""
    n, grid = array.factors, array.grid
    strong, census = _strength(grid, array.levels, k, reach=k,
                               proven=array.strength or 0)
    if not strong:
        raise NotAnOAAtStrength(f"array does not have strength {k}")
    if k > n / 2:
        raise ParameterViolation(
            f"sign fixing requires k <= N/2, got k={k}, N={n}")
    if len(_group_rows(grid, range(n))[1]) <= array.runs:
        raise DuplicateRows("array has repeated rows")
    return _cells(array, k, None if census is None else census.pairs)


def _system(array: OrthogonalArray,
            cells: Iterable[tuple]) -> SignConstraintSystem:
    """The parity constraints of `_checked_cells`' cells; the first cell
    that is fed by an odd number or by four or more pairs raises."""
    constraints = []
    for kept, cell, pairs in cells:
        if len(pairs) % 2 == 1:
            raise OddContributions(
                f"cell {cell} of kept subset {kept} receives {len(pairs)} "
                "row pairs; no +/-1 phases can cancel it")
        if len(pairs) >= 4:
            raise UnsupportedMultiplicity(
                f"cell {cell} of kept subset {kept} receives {len(pairs)} "
                "row pairs; beyond the two-pair linear treatment")
        (i, j), (l, m) = pairs
        odd_vars: set = set()
        for v in (i, j, l, m):
            odd_vars.symmetric_difference_update({v})
        constraints.append(SignConstraint(tuple(sorted(odd_vars)), 1, kept, cell))
    return SignConstraintSystem(array.runs, tuple(constraints))


def constraint_system(array: OrthogonalArray, k: int) -> SignConstraintSystem:
    """Extract the parity constraints for all kept k-subsets.

    Raises OddContributions when some cell is fed by an odd number of row
    pairs (no +/-1 assignment can cancel it) and UnsupportedMultiplicity when
    some cell is fed by four or more pairs (not a linear condition).
    """
    return _system(array, _checked_cells(array, k))


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


def _exhaustive_search(array: OrthogonalArray, cells: Iterable[tuple]
                       ) -> Union[PureState, _InfeasibleType]:
    """The smallest sign bitmask (alpha_0 = 0) cancelling every cell of
    `_checked_cells`, as a state; Infeasible when none of the 2**(r-1)
    does.  The even bitmasks are walked in ascending chunks (2**10, then
    doubling up to `_BLOCK_CELLS`), each filtered cell by cell, so the
    first chunk with a survivor ends the search and one chunk is held."""
    r = array.runs
    cells = [(np.array([(1 << i) | (1 << j) for i, j in pairs], dtype=np.uint64),
              len(pairs)) for _, _, pairs in cells]
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
            phases = tuple(-1.0 if (best >> i) & 1 else 1.0 for i in range(r))
            return state_from_oa(array, phases)
        start, size = stop, min(2 * size, _BLOCK_CELLS)
    return Infeasible


def fix_state(array: OrthogonalArray, k: int) -> Union[PureState, _InfeasibleType]:
    """Return a +/-1-phase state over the array's rows whose k-uniformity
    certifies, or Infeasible when no such signs exist.

    Odd-multiplicity cells mean no +/-1 assignment exists (Infeasible).
    Cells with four or more pairs fall back to exhaustive search for
    r <= 21 rows and raise Unsupported beyond that.  The search returns the
    smallest sign vector (as a bitmask, alpha_0 = 0): it walks the
    candidates in ascending chunks, stops at the first solution, sweeps all
    2**(r-1) only to answer Infeasible and holds one chunk in memory.
    """
    # one walk of the cells: the search reads what the system step read
    # (tee keeps it) and then the rest
    cells, again = tee(_checked_cells(array, k))
    try:
        system = _system(array, cells)
    except OddContributions:
        return Infeasible
    except UnsupportedMultiplicity as exc:
        if array.runs <= EXHAUSTIVE_ROW_LIMIT:
            result = _exhaustive_search(array, again)
            if result is not Infeasible:
                _require_k_uniform(result, k)
            return result
        raise Unsupported(
            f"cell multiplicity beyond the linear treatment and "
            f"{array.runs} rows exceed the exhaustive-search limit "
            f"{EXHAUSTIVE_ROW_LIMIT}") from exc

    solution = solve_signs(system)
    if solution is Infeasible:
        return Infeasible
    state = state_from_oa(array, solution.phases)
    _require_k_uniform(state, k)
    return state


def _require_k_uniform(state: PureState, k: int) -> None:
    if not _is_k_uniform(state, k):
        raise PostconditionFailed(
            f"repaired state does not certify as {k}-uniform")
