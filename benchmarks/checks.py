"""Answer checks that share no code with the library being timed.

Nothing here imports ``kuniform``.  Expected answers come from the
constructions' theorems, from ``tests/oracles.py`` (read-only) or from the
first-principles computations below, which work on plain tuples of row
digits:

* the Rao bound on the runs of an orthogonal array;
* the smallest Hamming distance between rows (irredundancy at k holds iff
  it exceeds k);
* the off-diagonal reduction cells of a state built on array rows: row
  pairs i < j whose rows differ only inside a kept subset K feed the cell
  (row_i[K], row_j[K]) of that subset's reduction;
* a GF(2) eliminator and an exhaustive sign search, used to prove a sign
  system feasible or not.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from math import comb

import numpy as np

import oracles


class CheckFailed(Exception):
    """An answer disagrees with what theory or an oracle predicts."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rao_min_runs(n: int, d: int, k: int) -> int:
    """Rao bound (Hedayat, Sloane and Stufken, Theorem 2.1): an OA with n
    factors, d levels and strength k has at least this many runs."""
    u, odd = divmod(k, 2)
    total = sum(comb(n, i) * (d - 1) ** i for i in range(u + 1))
    if odd:
        total += comb(n - 1, u) * (d - 1) ** (u + 1)
    return total


def exact_strength(rows, d: int, strength: int) -> int:
    """The strength of rows that a construction theorem gives strength
    `strength`: the naive oracle confirms it, and strength + 1 is excluded
    by index integrality or the Rao bound (the oracle decides otherwise)."""
    require(oracles.naive_strength_ok(rows, d, strength),
            f"rows do not have the theorem's strength {strength}")
    r, n = len(rows), len(rows[0])
    if strength == n or r < d ** (strength + 1) or \
            r < rao_min_runs(n, d, strength + 1):
        return strength
    return oracles.naive_max_strength(rows, d)


def min_distance(rows) -> int:
    """Smallest Hamming distance between two rows (0 if a row repeats)."""
    grid = np.asarray(rows, dtype=np.int64)
    best = grid.shape[1]
    for i in range(len(grid) - 1):
        best = min(best, int((grid[i + 1:] != grid[i]).sum(axis=1).min()))
    return best


def uniform_state_verdict(rows, d: int, k: int) -> bool:
    """k-uniformity of the equal-phase state on distinct rows: its
    reductions are diagonal iff the rows are irredundant at k (minimum
    distance > k) and uniform iff they have strength k."""
    return min_distance(rows) > k and oracles.naive_strength_ok(rows, d, k)


# ---------------------------------------------------------------------------
# reduction cells of a state on array rows
# ---------------------------------------------------------------------------

def cell_table(rows, k: int):
    """{kept: {(a, b): [(i, j), ...]}} for every kept k-subset with an
    off-diagonal cell; a < b are the kept-column tuples and row i shows a.
    Rows must be distinct."""
    grid = np.asarray(rows, dtype=np.int64)
    n = grid.shape[1]
    table: dict = defaultdict(lambda: defaultdict(list))
    for i in range(len(grid) - 1):
        diff = grid[i + 1:] != grid[i]
        weight = diff.sum(axis=1)
        require(int(weight.min()) > 0, f"row {i} repeats")
        for off in np.nonzero(weight <= k)[0]:
            j = i + 1 + int(off)
            moved = tuple(int(c) for c in np.nonzero(diff[off])[0])
            rest = [c for c in range(n) if c not in moved]
            for extra in combinations(rest, k - len(moved)):
                kept = tuple(sorted(moved + extra))
                a = tuple(rows[i][c] for c in kept)
                b = tuple(rows[j][c] for c in kept)
                if a < b:
                    table[kept][(a, b)].append((i, j))
                else:
                    table[kept][(b, a)].append((j, i))
    return table


def classify(table, runs: int, exhaustive_limit: int = 21):
    """Sign-repair class of an array from its cells: 'clean' (no cells),
    'odd' (an odd-pair cell, no cell of four or more pairs), 'linear'
    (only two-pair cells and a consistent GF(2) system), 'multi' (a cell of
    four or more pairs, no odd cell, runs within the exhaustive limit) or
    'unsup' (the same beyond it).  Anything else is 'mixed'."""
    counts = [len(p) for cells in table.values() for p in cells.values()]
    if not counts:
        return "clean"
    odd = any(c % 2 for c in counts)
    wide = any(c >= 4 for c in counts)
    if odd and not wide:
        return "odd"
    if wide and not odd:
        return "multi" if runs <= exhaustive_limit else "unsup"
    if not odd and not wide:
        return "linear" if gf2_consistent(parity_equations(table)) else "mixed"
    return "mixed"


def first_cell(table, test):
    """(kept, cell, pairs) of the first cell whose pair count passes
    `test`, or None."""
    for kept in sorted(table):
        for cell in sorted(table[kept]):
            if test(len(table[kept][cell])):
                return kept, cell, table[kept][cell]
    return None


def parity_equations(table):
    """One GF(2) equation (variable mask, parity) per two-pair cell: with
    phases (-1)**alpha, pairs (i, j) and (l, m) cancel iff
    alpha_i + alpha_j + alpha_l + alpha_m = 1."""
    equations = []
    for cells in table.values():
        for pairs in cells.values():
            mask = 0
            for i, j in pairs:
                mask ^= (1 << i) ^ (1 << j)
            equations.append((mask, 1))
    return equations


def gf2_consistent(equations) -> bool:
    pivots: dict = {}
    for mask, parity in equations:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = (mask, parity)
                break
            pmask, pparity = pivots[top]
            mask ^= pmask
            parity ^= pparity
        else:
            if parity:
                return False
    return True


def sign_patterns_exist(table, runs: int) -> bool:
    """Exhaustive search over the 2**(runs-1) sign vectors with row 0
    positive for one that cancels every cell."""
    require(runs <= 21, f"exhaustive search over {runs} rows is too large")
    alive = np.arange(2 ** (runs - 1), dtype=np.int64) << 1
    for cells in table.values():
        for pairs in cells.values():
            total = np.zeros(alive.shape, dtype=np.int64)
            for i, j in pairs:
                total += 1 - 2 * (((alive >> i) ^ (alive >> j)) & 1)
            alive = alive[total == 0]
            if alive.size == 0:
                return False
    return True


def reduced_matrix(rows, phases, kept, d: int, table) -> np.ndarray:
    """Reduction of the state sum_i phases[i] |rows[i]> (normalized by the
    row count) over `kept`, indexed by the kept tuples in base d."""
    dim = d ** len(kept)

    def index(word):
        code = 0
        for v in word:
            code = code * d + v
        return code

    rho = np.zeros((dim, dim), dtype=complex)
    for row, count in Counter(tuple(row[c] for c in kept) for row in rows).items():
        rho[index(row), index(row)] = count
    for (a, b), pairs in table.get(kept, {}).items():
        value = sum(phases[i] * np.conj(phases[j]) for i, j in pairs)
        rho[index(a), index(b)] += value
        rho[index(b), index(a)] += np.conj(value)
    return rho / len(rows)


def cancelled(table, phases) -> bool:
    """True iff every off-diagonal cell sums to zero under the phases."""
    for cells in table.values():
        for pairs in cells.values():
            if abs(sum(phases[i] * np.conj(phases[j]) for i, j in pairs)) > 1e-9:
                return False
    return True
