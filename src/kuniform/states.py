"""Pure states built from array rows, exact reductions, and the certifier.

A state is a sum of computational-basis kets with unit-modulus phases over
distinct words (normalization by the term count is implicit).  The d**N
state vector is never materialized: terms are grouped by their values on
the dropped columns, and only terms in one group meet in a reduction.

`uniformity` certifies k-uniformity without any d**k x d**k matrix, a
block of kept subsets at a time (`oa._subset_cells`).  The diagonal of each
reduction is the kept-word counts, from one sort of the block's kept-word
codes; the off-diagonal cells come only from the term pairs that differ on
at most k qudits, all kept, summed per (subset, cell) after one sort of the
block's pairs.  Memory never depends on d**k.  Only for the exact
eigenvalues of failing subsets of dimension <= 64 does `uniformity` build
dense reductions: a block's failing ones together, from the block's own
cells, in stacks of at most `oa._BLOCK_CELLS` entries, each stack with one
eigenvalue call; they equal `reduce`'s entry for entry.  `reduce` (at
most DENSE_BYTES_LIMIT bytes) is the public one-subset reduction.
`max_uniformity` stops after the first block of subsets that holds a
failing one.

Where the pair census pays (`oa._census_pays`), `_early`, its one
reader, answers without the scan where it can: strength k (Delsarte's
test) with no two terms within distance k makes every reduction exactly
I/d**k, whatever the phases, and a fast False comes only where the scan
must agree.  Otherwise the scan runs on the census's close pairs,
skipping the diagonal counts once strength k is proven.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations, repeat
from math import comb
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import oa
from .errors import (
    BadSubset,
    DuplicateRows,
    LengthMismatch,
    ParameterViolation,
    PhaseLengthMismatch,
    ShapeMismatch,
    TooLarge,
    Unsupported,
)
from .linalg import rank_by_eigenvalues
from .oa import (OrthogonalArray, _Census, _census, _group_rows, _kept_codes,
                 _pairs, _subset_cells, _word_counts)

DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {c: i for i, c in enumerate(DIGITS36)}
_DIGIT_BYTES = np.frombuffer(DIGITS36.encode("ascii"), dtype=np.uint8)
#: Symbol value of each byte; 256, above every level a state holds, for
#: bytes that are not base-36 digits.
_BYTE_VALUE = np.full(256, 256, dtype=np.uint16)
_BYTE_VALUE[_DIGIT_BYTES] = np.arange(len(DIGITS36))

#: Largest matrix dimension for which failure eigenvalues are computed.
EIGENVALUE_DIM_LIMIT = 64

#: Largest dense reduction, in bytes, that `reduce` allocates, and the
#: largest listing of Python objects the graph views build.
DENSE_BYTES_LIMIT = 1 << 30

#: Default entrywise tolerance for maximal-mixedness checks.
DEFAULT_TOL = 1e-9

_REPORT_NOTE = ("subset labels are 1-based (leftmost qudit is 1); "
                "library column arguments are 0-based")


def digits_to_word(digits: Sequence[int]) -> str:
    return "".join(DIGITS36[v] for v in digits)


def word_to_digits(word: str) -> Tuple[int, ...]:
    return tuple(_DIGIT_VALUE[c] for c in word)


def _text_words(grid: np.ndarray, levels: int) -> List[str]:
    """Each row of a symbol grid as a base-36 word."""
    if levels > len(DIGITS36):
        raise Unsupported(f"base-36 words encode at most {len(DIGITS36)} "
                          f"levels, got {levels}")
    n = grid.shape[1]
    text = np.ascontiguousarray(_DIGIT_BYTES[grid]).view(f"S{n}")[:, 0]
    return text.astype(f"U{n}").tolist()


@dataclass(frozen=True, eq=False, init=False)
class PureState:
    """N-qudit state: distinct length-N words with unit-modulus phases.

    Built from (word, phase) terms in any order, the words in base-36
    digits.  Stored only as `grid`, a read-only r x N uint8 array of level
    values whose rows are the words in ascending order, `levels` (2..256),
    and `phase_vector`, the read-only complex phases in row order.  `terms`,
    `words` and `phases` are tuples built from them on first use; `terms`
    and `words` are base-36 text, so they raise Unsupported above 36 levels.
    """

    grid: np.ndarray
    levels: int
    phase_vector: np.ndarray

    def __new__(cls, qudits: int, levels: int,
                terms: Sequence[Tuple[str, complex]]) -> PureState:
        if qudits < 1 or not terms:
            raise ParameterViolation("a state needs a qudit and a term")
        words, phases = zip(*terms)
        try:
            text = "".join(words)
        except TypeError:
            raise ParameterViolation("words must be str") from None
        if set(map(len, words)) != {qudits}:
            raise ShapeMismatch(f"every word must have length {qudits}")
        # a character that is no base-36 digit becomes "?", symbol 256
        raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
        return _from_grid(_BYTE_VALUE[raw].reshape(-1, qudits), levels, phases)

    def __reduce__(self):
        return _from_grid, (self.grid, self.levels, self.phase_vector)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.levels == other.levels
                and np.array_equal(self.grid, other.grid)
                and np.array_equal(self.phase_vector, other.phase_vector))

    def __hash__(self) -> int:
        # equal phases can differ in bytes (0.0, -0.0): hash only the words
        return hash((self.grid.shape, self.grid.tobytes(), self.levels))

    @property
    def qudits(self) -> int:
        return self.grid.shape[1]

    @property
    def term_count(self) -> int:
        return self.grid.shape[0]

    @cached_property
    def words(self) -> Tuple[str, ...]:
        return tuple(_text_words(self.grid, self.levels))

    @cached_property
    def phases(self) -> Tuple[complex, ...]:
        return tuple(self.phase_vector.tolist())

    @cached_property
    def terms(self) -> Tuple[Tuple[str, complex], ...]:
        return tuple(zip(self.words, self.phases))


def _from_grid(grid: np.ndarray, levels: int, phases) -> PureState:
    """The state with terms (row i of `grid`, phases[i]): validated, put in
    ascending word order and stored read-only.  Every state is made here."""
    if not 2 <= levels <= 256:  # symbols are stored as uint8
        raise ParameterViolation(f"levels must be in 2..256, got {levels}")
    r, n = grid.shape
    phases = np.asarray(phases, dtype=complex)
    if phases.shape != (r,):
        raise PhaseLengthMismatch(f"need {r} phases, got {len(phases)}")
    if grid.max() >= levels:
        raise ParameterViolation(f"words use symbols outside 0..{levels - 1}")
    unit = abs(abs(phases) - 1.0) <= 1e-12  # False for NaN
    if not unit.all():
        raise ParameterViolation(
            f"phase {phases[~unit][0]} is not finite and unit-modulus")
    # the stable byte order of the rows is ascending word order
    order, bounds = _group_rows(grid, range(n))
    if len(bounds) <= r:
        raise DuplicateRows("two terms share one word")
    grid, phases = grid[order].astype(np.uint8, copy=False), phases[order]
    grid.flags.writeable = phases.flags.writeable = False
    state = object.__new__(PureState)
    state.__dict__.update(grid=grid, levels=levels, phase_vector=phases)
    return state


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian reduction over an explicit kept-column subset."""

    data: np.ndarray
    kept: Tuple[int, ...]
    levels: int

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=complex)
        kept = tuple(int(c) for c in self.kept)
        object.__setattr__(self, "kept", kept)
        dim = self.levels ** len(kept)
        if arr.shape != (dim, dim):
            raise ShapeMismatch(
                f"expected a {dim}x{dim} matrix for {len(kept)} kept columns")
        _require_density(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]


def _require_density(data: np.ndarray) -> None:
    """ParameterViolation unless each matrix of a (..., n, n) stack is
    Hermitian within 1e-12 and has trace 1 within 1e-9."""
    skew = np.abs(data - data.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    if (skew > 1e-12).any():
        raise ParameterViolation("matrix is not Hermitian within 1e-12")
    trace = data.trace(axis1=-2, axis2=-1)
    if ((abs(trace.real - 1.0) > 1e-9) | (abs(trace.imag) > 1e-9)).any():
        raise ParameterViolation("trace must equal 1")


def state_from_oa(array: OrthogonalArray,
                  phases: Optional[Sequence[complex]] = None) -> PureState:
    """One term per array row: the row as a word, with the given phase
    (+1 by default).  Row i's phase is phases[i]; rows must be distinct."""
    if phases is None:
        phases = np.ones(array.runs, dtype=complex)
    return _from_grid(array.grid, array.levels, phases)


def _require_listable(items: int, item_bytes: int, what: str) -> None:
    """TooLarge, before any allocation, when `items` objects of
    `item_bytes` each would pass DENSE_BYTES_LIMIT."""
    if items * item_bytes > DENSE_BYTES_LIMIT:
        raise TooLarge(f"{what} needs about {items * item_bytes} bytes, "
                       f"over the {DENSE_BYTES_LIMIT}-byte limit")


def _require_proper_k(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise ParameterViolation(f"k must be in 1..{n - 1}, got {k}")


def _require_tol(tol: float) -> None:
    if not tol > 0:  # NaN too
        raise ParameterViolation("tol must be positive")


def _validated_subset(keep: Sequence[int], n: int) -> Tuple[int, ...]:
    cols = [int(c) for c in keep]
    if not cols:
        raise BadSubset("kept subset is empty")
    if len(set(cols)) != len(cols):
        raise BadSubset(f"repeated columns in {cols}")
    if any(not 0 <= c < n for c in cols):
        raise BadSubset(f"columns {cols} outside 0..{n - 1}")
    if len(cols) == n:
        raise BadSubset("kept subset must be a proper subset")
    return tuple(sorted(cols))


def reduce(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Exact dense reduced density matrix over the kept columns (0-based).

    rho[a, a'] = (1/r) * sum of phase_i * conj(phase_j) over term pairs that
    agree on every dropped column and restrict to words a / a' on the kept
    columns.  Terms are grouped by their dropped-column values, so the work
    besides the d**k x d**k matrix itself is proportional to the sum of
    squared group sizes, never to d**N.
    """
    n, d = state.qudits, state.levels
    kept = _validated_subset(keep, n)
    dropped = [i for i in range(n) if i not in kept]
    dim = d ** len(kept)
    _require_listable(dim * dim, 16, f"a {dim} x {dim} reduction")
    u, v = _pairs(*_group_rows(state.grid, dropped))
    data = _reductions(state, np.array([kept]), np.zeros_like(u), u, v)[0]
    return DensityMatrix(data, kept, d)


def _deviations(state: PureState, k: int, tol: float,
                pairs: Optional[Tuple[np.ndarray, ...]] = None,
                strong: bool = False) -> Iterator[Tuple[np.ndarray, ...]]:
    """(subsets, deviations, sub, u, v) for blocks of k-column subsets in
    lexicographic order: max|rho - I/d**k| of each subset, without forming
    rho, and the block's cell incidences as `oa._subset_cells` yields them.

    The distinct words make the terms of one dropped-column group differ on
    the kept columns, so the diagonal of rho is the kept-word counts over r
    (a kept word no term has counts 0), taken from one sort per block
    (`oa._word_counts`); when the words' strength k is proven (`strong`),
    every count is r/d**k, and r/d**k / r is 1/d**k in floating point, so
    the diagonal deviates by exactly 0 and is not counted.  The
    off-diagonal cells are fed only by term pairs that differ on at most k
    columns, all kept (`oa._subset_cells`, given the census's `pairs` when
    it has them).  k and tol are checked by the callers.
    """
    d, r = state.levels, state.term_count
    grid, phases = state.grid, state.phase_vector
    target = 1.0 / d ** k
    words = min(d ** k, r + 1)  # r + 1 stands in for a d**k beyond int64
    for subsets, codes, sub, u, v, bounds in _subset_cells(grid, d, k, pairs):
        if strong:
            deviation = np.zeros(len(subsets))
        else:
            distinct, least, most = _word_counts(codes)
            deviation = np.maximum(abs(least / r - target),
                                   abs(most / r - target))
            missing = distinct < words  # a kept word no term has: rho's 0
            deviation[missing] = np.maximum(deviation[missing], target)
        if len(sub):
            # each pair is oriented from the smaller to the larger kept
            # word; the mirror cell of rho holds the conjugate sum
            value = phases[u] * phases[v].conj()
            cell = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            total = (np.bincount(cell, weights=value.real)
                     + 1j * np.bincount(cell, weights=value.imag))
            np.maximum.at(deviation, sub[bounds[:-1]], np.abs(total) / r)
        yield subsets, deviation, sub, u, v


def _reductions(state: PureState, subsets: np.ndarray, sub: np.ndarray,
                u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (b, d**k, d**k) stack of the reductions over the b subsets of
    `subsets`, from cell incidences (sub, u, v), sub indexing `subsets`:
    those of `oa._subset_cells`, or every pair of `reduce`'s one subset.

    An entry sums its terms in one order, by one flat bincount each of the
    real and imaginary parts: the diagonal in row order, then a cell's
    pairs in dropped-word order (the rows are in word order), with their
    conjugates at the mirror cell; so both callers build it bit for bit
    alike.  Unchecked here: `reduce` checks its matrix by DensityMatrix,
    `_spectra` each stack once by `_require_density`.
    """
    phases, d = state.phase_vector, state.levels
    b, k = subsets.shape
    dim = d ** k
    size = dim * dim
    codes = _kept_codes(state.grid, d, subsets)
    cu, cv, first = codes[sub, u], codes[sub, v], sub * size
    diagonal = codes * (dim + 1) + np.arange(0, b * size, size)[:, None]
    value = phases[u] * phases[v].conj()
    index = np.concatenate(
        (diagonal.ravel(), first + cu * dim + cv, first + cv * dim + cu))
    weight = np.concatenate(
        (np.tile(phases * phases.conj(), b), value, value.conj()))
    data = np.zeros(b * size, dtype=complex)
    data.real = np.bincount(index, weight.real, len(data))
    data.imag = np.bincount(index, weight.imag, len(data))
    data = data.reshape(b, dim, dim)
    data /= state.term_count
    return data


def _spectra(state: PureState, subsets: np.ndarray, failing: np.ndarray,
             sub: np.ndarray, u: np.ndarray, v: np.ndarray
             ) -> Iterator[Tuple[float, ...]]:
    """Ascending eigenvalues of the reduction over each subset
    ``subsets[failing]`` of one block of `_deviations` (cell incidences
    (sub, u, v)): per stack of at most oa._BLOCK_CELLS entries (or one
    matrix), one `_require_density` and one `np.linalg.eigvalsh` call."""
    dim = state.levels ** subsets.shape[1]
    # renumber the incidences of failing subsets 0, 1, ... (still sorted)
    slot = np.full(len(subsets), -1)
    slot[failing] = np.arange(len(failing))
    sub = slot[sub]
    keep = sub >= 0
    sub, u, v = sub[keep], u[keep], v[keep]
    per_stack = max(1, oa._BLOCK_CELLS // (dim * dim))
    for start in range(0, len(failing), per_stack):
        stop = min(start + per_stack, len(failing))
        lo, hi = np.searchsorted(sub, (start, stop))
        data = _reductions(state, subsets[failing[start:stop]],
                           sub[lo:hi] - start, u[lo:hi], v[lo:hi])
        _require_density(data)
        yield from map(tuple, np.linalg.eigvalsh(data).tolist())


class MixednessResult(NamedTuple):
    ok: bool
    deviation: float


def is_maximally_mixed(rho: DensityMatrix,
                       tol: float = DEFAULT_TOL) -> MixednessResult:
    """Entrywise comparison against I/dim; reports the max deviation."""
    _require_tol(tol)
    target = np.eye(rho.dimension) / rho.dimension
    deviation = float(np.max(np.abs(rho.data - target)))
    return MixednessResult(deviation <= tol, deviation)


class SubsetReport(NamedTuple):
    """Status of one kept subset; labels are 1-based (see report note)."""

    kept_labels: Tuple[int, ...]
    maximally_mixed: bool
    deviation: float
    eigenvalues: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class UniformityReport:
    qudits: int
    levels: int
    strength: int
    tolerance: float
    certified: bool
    subsets: Tuple[SubsetReport, ...]
    note: str = _REPORT_NOTE


def uniformity(state: PureState, k: int,
               tol: float = DEFAULT_TOL) -> UniformityReport:
    """Check every C(N, k) kept subset; certified iff all are maximally
    mixed.  TooLarge, before any work, when the records alone would pass
    DENSE_BYTES_LIMIT.

    Where the pair census (`oa._census`, read by `_early`) certifies,
    every record is (labels, True, 0.0, None), built with no scan.
    Otherwise each subset is certified sparsely (`_deviations`, fed the
    census's pairs when it has them).  The failing subsets of dimension
    <= 64 get their exact eigenvalues: a block's failing reductions are
    built together from the block's cells and take one stacked eigenvalue
    call (see `_spectra`).  The records are built in bulk from the
    concatenated blocks."""
    n, d = state.qudits, state.levels
    _require_proper_k(k, n)
    _require_tol(tol)
    # a record: its tuple, its labels, its deviation and its slot
    _require_listable(comb(n, k), sys.getsizeof(SubsetReport((), True, 0.0))
                      + sys.getsizeof((0,) * k) + sys.getsizeof(0.0) + 8,
                      f"a report of {comb(n, k)} subsets")
    # a False answer still needs the scan's records, fed the census's pairs
    answer, pairs, strong = _early(state, k, tol,
                                   _census(state.grid, k, k, d))
    # tuple.__new__ makes each record with no Python frame per subset
    record = partial(tuple.__new__, SubsetReport)
    if answer:
        labels = combinations(range(1, n + 1), k)
        reports = map(record, zip(labels, repeat(True), repeat(0.0),
                                  repeat(None)))
        return UniformityReport(n, d, k, tol, True, tuple(reports))
    spectra = d ** k <= EIGENVALUE_DIM_LIMIT
    blocks, eigenvalues = [], []
    for subsets, deviations, *cells in _deviations(state, k, tol, pairs,
                                                   strong):
        ok = deviations <= tol
        blocks.append((subsets, deviations, ok))
        found = [None] * len(subsets)
        if spectra and not ok.all():
            failing = np.flatnonzero(~ok)
            for i, values in zip(failing.tolist(),
                                 _spectra(state, subsets, failing, *cells)):
                found[i] = values
        eigenvalues += found
    subsets, deviations, ok = map(np.concatenate, zip(*blocks))
    labels = map(tuple, (subsets + 1).tolist())
    reports = map(record, zip(labels, ok.tolist(), deviations.tolist(),
                              eigenvalues))
    return UniformityReport(n, d, k, tol, bool(ok.all()), tuple(reports))


def _is_k_uniform(state: PureState, k: int, tol: float = DEFAULT_TOL) -> bool:
    """uniformity(state, k, tol).certified, decided without a scan where
    `_early` can, else by the scan, which stops after the first block of
    subsets that holds a failing one."""
    _require_proper_k(k, state.qudits)
    _require_tol(tol)
    return _certifies(state, k, tol)[0]


def _early(state: PureState, k: int, tol: float, census: Optional[_Census]
           ) -> Tuple[Optional[bool], Optional[Tuple[np.ndarray, ...]], bool]:
    """(answer, pairs, strong) at a checked k and tol from the pair census
    taken at k or below (None if none was), its one reader: the verdict
    where no scan is needed (else None), the census's close pairs at
    distance <= k (None: `_close_pairs` finds them), and whether strength
    k is proven.  True when strength k holds and no two terms lie within
    distance k: every reduction is then exactly I/d**k.  False only where
    the scan must agree, each bound with a factor-2 margin for rounding:
    * without strength k (r no multiple of d**k, or the census says so) a
      diagonal entry deviates by at least 1/(r d**k), by 1/d**k when
      r < d**k leaves a kept word out, so when tol is below half of that;
    * with one common phase, a pair within distance k puts at least 1/r
      into a cell of a subset holding its support, so when tol < 1/(2r).
    """
    r, d = state.term_count, state.levels
    dim = d ** k
    # strength k needs d**k to divide r, which costs less to test
    strong = (census is not None and not r % dim
              and census.strength(d, k) >= k)
    close = census is not None and census.separation <= k
    if strong and not close:
        return True, None, True
    pairs = None if census is None else census.close_pairs(k)
    gap = 1 / dim if r < dim else 1 / (r * dim)
    if (r % dim or census is not None and not strong) and tol < gap / 2:
        return False, pairs, strong
    phases = state.phase_vector
    if close and tol < 1 / (2 * r) and (phases == phases[0]).all():
        return False, pairs, strong
    return None, pairs, strong


def _certifies(state: PureState, k: int, tol: float,
               census: Optional[_Census] = None
               ) -> Tuple[bool, Optional[_Census]]:
    """(`_is_k_uniform` at a checked k and tol, the pair census).  `census`
    is one taken at a smaller k, if any; without one, a census is taken
    where it pays (`oa._census`), unless r alone decides.  Where `_early`
    gives no answer, the scan decides, fed the census's pairs and skipping
    the diagonal when strength k is proven."""
    answer, pairs, strong = _early(state, k, tol, census)
    if answer is None and census is None:
        census = _census(state.grid, k, k, state.levels)
        answer, pairs, strong = _early(state, k, tol, census)
    if answer is None:
        answer = all(bool((deviations <= tol).all()) for _, deviations, *_
                     in _deviations(state, k, tol, pairs, strong))
    return answer, census


def max_uniformity(state: PureState, tol: float = DEFAULT_TOL) -> int:
    """Largest k <= floor(N/2) whose uniformity check certifies (0 if even
    k = 1 fails); checks upward and stops at the first k that fails, which
    is sound because k-uniformity implies k'-uniformity for k' < k.  The
    pair census is taken once, at the first k where it pays, and serves
    every k from there on: a small state (all r**2 pair words in half a
    chunk and d dividing r, `oa._census_pays`) takes it at k = 1, and
    where it decides every k no `_close_pairs` call and no scan runs."""
    _require_tol(tol)
    best, census = 0, None
    for k in range(1, state.qudits // 2 + 1):
        certified, census = _certifies(state, k, tol, census)
        if not certified:
            break
        best = k
    return best


def orbit_state(state: PureState, angles: Sequence[float]) -> PureState:
    """Multiply term i (canonical order, i >= 1) by exp(1j * angles[i-1]);
    term 0 keeps its phase.  This spans the phase orbit of the state."""
    r = state.term_count
    if len(angles) != r - 1:
        raise LengthMismatch(f"need {r - 1} angles, got {len(angles)}")
    phases = state.phase_vector.copy()
    with np.errstate(invalid="ignore"):  # a non-finite angle fails below
        phases[1:] *= np.exp(1j * np.asarray(angles, dtype=float))
    return _from_grid(state.grid, state.levels, phases)


def layered_state(parts: Sequence[PureState]) -> PureState:
    """Prefix part i's words with symbol i and take the union of terms.

    All parts must share (qudits, levels) and there may be at most `levels`
    parts (the prefix symbol must be a valid level).
    """
    if not parts:
        raise ShapeMismatch("need at least one part")
    n, d = parts[0].qudits, parts[0].levels
    if any(p.qudits != n or p.levels != d for p in parts):
        raise ShapeMismatch("parts must share qudit and level counts")
    if len(parts) > d:
        raise ShapeMismatch(f"at most {d} parts allowed, got {len(parts)}")
    prefix = np.repeat(np.arange(len(parts), dtype=np.uint8),
                       [p.term_count for p in parts])
    grid = np.column_stack((prefix, np.concatenate([p.grid for p in parts])))
    phases = np.concatenate([p.phase_vector for p in parts])
    return _from_grid(grid, d, phases)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho**2); equals sum of squared entry magnitudes for Hermitian rho."""
    return float(np.sum(np.abs(rho.data) ** 2))


def reduction_rank(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol."""
    return rank_by_eigenvalues(rho.data, tol)
