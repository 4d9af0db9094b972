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
handled by bounded exhaustive search.  The cells and their pairs come from
the block kernels of `oa` (`oa._subset_cells`): the row pairs that differ
on at most k columns, all kept, grouped per (subset, cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

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
from .oa import OrthogonalArray, _array_grid, _subset_cells, verify_strength
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


def _cells(array: OrthogonalArray, k: int):
    """Yield (kept, cell, pairs) for each off-diagonal cell with at least
    one contributing row pair, in lexicographic (kept, cell) order; the
    pairs (i < j) of a cell ascend."""
    grid = _array_grid(array)
    for subsets, _, sub, u, v, bounds in _subset_cells(grid, array.levels, k):
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            kept = tuple(subsets[sub[start]].tolist())
            cell = tuple(digits_to_word(grid[row, list(kept)].tolist())
                         for row in (u[start], v[start]))
            pairs = sorted((min(i, j), max(i, j)) for i, j in
                           zip(u[start:stop].tolist(), v[start:stop].tolist()))
            yield kept, cell, pairs


def constraint_system(array: OrthogonalArray, k: int) -> SignConstraintSystem:
    """Extract the parity constraints for all kept k-subsets.

    Raises OddContributions when some cell is fed by an odd number of row
    pairs (no +/-1 assignment can cancel it) and UnsupportedMultiplicity when
    some cell is fed by four or more pairs (not a linear condition).
    """
    n = array.factors
    if not verify_strength(array, k):
        raise NotAnOAAtStrength(f"array does not have strength {k}")
    if k > n / 2:
        raise ParameterViolation(
            f"sign fixing requires k <= N/2, got k={k}, N={n}")
    if len(set(array.rows)) != array.runs:
        raise DuplicateRows("array has repeated rows")

    constraints = []
    for kept, cell, pairs in _cells(array, k):
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
        mask = 0
        for v in c.variables:
            if not 0 <= v < r:
                raise ParameterViolation(f"variable {v} outside 0..{r - 1}")
            mask |= 1 << v
        rows.append((mask, c.parity & 1))

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


def _exhaustive_search(array: OrthogonalArray,
                       k: int) -> Union[PureState, _InfeasibleType]:
    """Search all 2**(r-1) sign vectors (alpha_0 = 0) for one cancelling
    every off-diagonal cell; vectorized over candidate bitmasks."""
    r = array.runs
    candidates = np.arange(2 ** (r - 1), dtype=np.uint64) * 2  # bit 0 clear
    for _, _, pairs in _cells(array, k):
        if candidates.size == 0:
            break
        masks = np.array([(1 << i) | (1 << j) for i, j in pairs], dtype=np.uint64)
        total = np.zeros(candidates.shape, dtype=np.int64)
        for m in masks:
            odd = (np.bitwise_count(candidates & m) & 1).astype(np.int64)
            total += 1 - 2 * odd
        candidates = candidates[total == 0]
    if candidates.size == 0:
        return Infeasible
    best = int(candidates.min())
    phases = tuple(-1.0 if (best >> i) & 1 else 1.0 for i in range(r))
    return state_from_oa(array, phases)


def fix_state(array: OrthogonalArray, k: int) -> Union[PureState, _InfeasibleType]:
    """Return a +/-1-phase state over the array's rows whose k-uniformity
    certifies, or Infeasible when no such signs exist.

    Odd-multiplicity cells mean no +/-1 assignment exists (Infeasible).
    Cells with four or more pairs fall back to exhaustive search for
    r <= 21 rows and raise Unsupported beyond that.
    """
    try:
        system = constraint_system(array, k)
    except OddContributions:
        return Infeasible
    except UnsupportedMultiplicity as exc:
        if array.runs <= EXHAUSTIVE_ROW_LIMIT:
            result = _exhaustive_search(array, k)
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
