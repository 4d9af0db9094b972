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
block's pairs.  Memory never depends on d**k.  Dense matrices are built
only by `reduce` itself (at most DENSE_BYTES_LIMIT bytes), which
`uniformity` calls just for the exact eigenvalues of a failing subset of
dimension <= 64.  `max_uniformity` stops after the first block of subsets
that holds a failing one.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadSubset,
    DuplicateRows,
    LengthMismatch,
    ParameterViolation,
    PhaseLengthMismatch,
    ShapeMismatch,
    TooLarge,
)
from .linalg import jacobi_eigvalsh, rank_by_eigenvalues
from .oa import (OrthogonalArray, _group_rows, _kept_codes, _pairs,
                 _repeats_a_row, _subset_cells, _word_counts)

DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUE = {c: i for i, c in enumerate(DIGITS36)}
_DIGIT_BYTES = np.frombuffer(DIGITS36.encode("ascii"), dtype=np.uint8)

#: Largest matrix dimension for which failure eigenvalues are computed.
EIGENVALUE_DIM_LIMIT = 64

#: Largest dense reduction, in bytes, that `reduce` allocates.
DENSE_BYTES_LIMIT = 1 << 30

#: Default entrywise tolerance for maximal-mixedness checks.
DEFAULT_TOL = 1e-9

_REPORT_NOTE = ("subset labels are 1-based (leftmost qudit is 1); "
                "library column arguments are 0-based")


def digits_to_word(digits: Sequence[int]) -> str:
    return "".join(DIGITS36[v] for v in digits)


def word_to_digits(word: str) -> Tuple[int, ...]:
    return tuple(_DIGIT_VALUE[c] for c in word)


@dataclass(frozen=True)
class PureState:
    """N-qudit state: distinct length-N words with unit-modulus phases.

    Terms are canonicalized to ascending word order at construction; phase
    order follows the words.
    """

    qudits: int
    levels: int
    terms: Tuple[Tuple[str, complex], ...]

    def __post_init__(self) -> None:
        if self.qudits < 1:
            raise ParameterViolation("need at least one qudit")
        if not 2 <= self.levels <= len(DIGITS36):
            raise ParameterViolation(
                f"levels must be in 2..{len(DIGITS36)}, got {self.levels}")
        if not self.terms:
            raise ParameterViolation("a state needs at least one term")
        alphabet = DIGITS36[: self.levels]
        cleaned = []
        for word, phase in self.terms:
            if len(word) != self.qudits:
                raise ShapeMismatch(
                    f"word {word!r} is not length {self.qudits}")
            if any(c not in alphabet for c in word):
                raise ParameterViolation(
                    f"word {word!r} uses symbols outside 0..{self.levels - 1}")
            phase = complex(phase)
            if abs(abs(phase) - 1.0) > 1e-12:
                raise ParameterViolation(
                    f"phase {phase} is not unit-modulus")
            cleaned.append((word, phase))
        cleaned.sort(key=lambda t: t[0])
        for (wa, _), (wb, _) in zip(cleaned, cleaned[1:]):
            if wa == wb:
                raise DuplicateRows(f"duplicate word {wa!r}")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def words(self) -> Tuple[str, ...]:
        return tuple(w for w, _ in self.terms)

    @property
    def phases(self) -> Tuple[complex, ...]:
        return tuple(p for _, p in self.terms)


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
        if np.max(np.abs(arr - arr.conj().T)) > 1e-12:
            raise ParameterViolation("matrix is not Hermitian within 1e-12")
        if abs(np.trace(arr).real - 1.0) > 1e-9 or abs(np.trace(arr).imag) > 1e-9:
            raise ParameterViolation("trace must equal 1")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]


def state_from_oa(array: OrthogonalArray,
                  phases: Optional[Sequence[complex]] = None) -> PureState:
    """One term per array row: the row as a word, with the given phase
    (+1 by default).  Row i's phase is phases[i]; rows must be distinct."""
    r, n = array.grid.shape
    if phases is None:
        phase_list = [complex(1.0)] * r
    else:
        phase_list = [complex(p) for p in phases]
        if len(phase_list) != r:
            raise PhaseLengthMismatch(
                f"need {r} phases, got {len(phase_list)}")
    if array.levels > len(DIGITS36):
        raise ParameterViolation(
            f"levels must be in 2..{len(DIGITS36)}, got {array.levels}")
    if _repeats_a_row(array.grid):
        raise DuplicateRows("array has repeated rows")
    words = _DIGIT_BYTES[array.grid].view(f"S{n}")[:, 0].tolist()
    terms = tuple((w.decode("ascii"), ph) for w, ph in zip(words, phase_list))
    return PureState(n, array.levels, terms)


def _validated_subset(keep: Sequence[int], n: int, *,
                      proper: bool = True) -> Tuple[int, ...]:
    cols = [int(c) for c in keep]
    if not cols:
        raise BadSubset("kept subset is empty")
    if len(set(cols)) != len(cols):
        raise BadSubset(f"repeated columns in {cols}")
    if any(not 0 <= c < n for c in cols):
        raise BadSubset(f"columns {cols} outside 0..{n - 1}")
    if proper and len(cols) == n:
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
    if 16 * dim * dim > DENSE_BYTES_LIMIT:
        raise TooLarge(f"a {dim} x {dim} reduction needs {16 * dim * dim} "
                       f"bytes, over the {DENSE_BYTES_LIMIT}-byte limit")
    grid, phases = _grid(state), np.array(state.phases)
    codes = _kept_codes(grid, d, np.array([kept]))[0]

    data = np.zeros((dim, dim), dtype=complex)
    np.add.at(data, (codes, codes), phases * phases.conj())
    u, v = _pairs(*_group_rows(grid, dropped))
    value = phases[u] * phases[v].conj()
    np.add.at(data, (codes[u], codes[v]), value)
    np.add.at(data, (codes[v], codes[u]), value.conj())
    data /= state.term_count
    return DensityMatrix(data, kept, d)


def _grid(state: PureState) -> np.ndarray:
    """The terms' words as an r x N uint8 grid of level values."""
    raw = np.frombuffer("".join(state.words).encode("ascii"), dtype=np.uint8)
    grid = np.where(raw >= ord("a"), raw - (ord("a") - 10), raw - ord("0"))
    return grid.astype(np.uint8).reshape(state.term_count, state.qudits)


def _deviations(state: PureState, k: int,
                tol: float) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(subsets, deviations) for blocks of k-column subsets in lexicographic
    order: max|rho - I/d**k| of each subset, without forming rho.

    The distinct words make the terms of one dropped-column group differ on
    the kept columns, so the diagonal of rho is the kept-word counts over r
    (a kept word no term has counts 0), taken from one sort per block
    (`oa._word_counts`).  The off-diagonal cells are fed only by term pairs
    that differ on at most k columns, all kept (`oa._subset_cells`).  Bad k
    or tol raise ParameterViolation when iteration starts.
    """
    n, d, r = state.qudits, state.levels, state.term_count
    if not 1 <= k <= n - 1:
        raise ParameterViolation(f"k must be in 1..{n - 1}, got {k}")
    if tol <= 0:
        raise ParameterViolation("tol must be positive")
    grid, phases = _grid(state), np.array(state.phases)
    target = 1.0 / d ** k
    words = min(d ** k, r + 1)  # r + 1 stands in for a d**k beyond int64
    for subsets, codes, sub, u, v, bounds in _subset_cells(grid, d, k):
        distinct, least, most = _word_counts(codes)
        deviation = np.maximum(abs(least / r - target), abs(most / r - target))
        missing = distinct < words  # a kept word no term has: rho's 0 entry
        deviation[missing] = np.maximum(deviation[missing], target)
        if len(sub):
            # each pair is oriented from the smaller to the larger kept
            # word; the mirror cell of rho holds the conjugate sum
            value = phases[u] * phases[v].conj()
            cell = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
            total = (np.bincount(cell, weights=value.real)
                     + 1j * np.bincount(cell, weights=value.imag))
            np.maximum.at(deviation, sub[bounds[:-1]], np.abs(total) / r)
        yield subsets, deviation


class MixednessResult(NamedTuple):
    ok: bool
    deviation: float


def is_maximally_mixed(rho: DensityMatrix,
                       tol: float = DEFAULT_TOL) -> MixednessResult:
    """Entrywise comparison against I/dim; reports the max deviation."""
    if tol <= 0:
        raise ParameterViolation("tol must be positive")
    target = np.eye(rho.dimension) / rho.dimension
    deviation = float(np.max(np.abs(rho.data - target)))
    return MixednessResult(deviation <= tol, deviation)


@dataclass(frozen=True)
class SubsetReport:
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
    mixed.  Each subset is certified sparsely; only a failing subset of
    dimension <= 64 gets a dense reduction, for its exact eigenvalues."""
    reports = []
    for subsets, deviations in _deviations(state, k, tol):
        for kept, deviation in zip(subsets.tolist(), deviations.tolist()):
            ok = deviation <= tol
            eigenvalues = None
            if not ok and state.levels ** k <= EIGENVALUE_DIM_LIMIT:
                rho = reduce(state, kept)
                eigenvalues = tuple(float(v)
                                    for v in jacobi_eigvalsh(rho.data))
            reports.append(SubsetReport(tuple(c + 1 for c in kept), ok,
                                        deviation, eigenvalues))
    certified = all(s.maximally_mixed for s in reports)
    return UniformityReport(state.qudits, state.levels, k, tol, certified,
                            tuple(reports))


def _is_k_uniform(state: PureState, k: int, tol: float = DEFAULT_TOL) -> bool:
    """uniformity(state, k, tol).certified, stopping after the first block
    of subsets that holds a failing one."""
    return all(bool((deviations <= tol).all())
               for _, deviations in _deviations(state, k, tol))


def max_uniformity(state: PureState, tol: float = DEFAULT_TOL) -> int:
    """Largest k <= floor(N/2) whose uniformity check certifies (0 if even
    k = 1 fails); scans upward and stops after the first block of subsets
    that holds a failing one, which is sound because k-uniformity implies
    k'-uniformity for k' < k."""
    best = 0
    for k in range(1, state.qudits // 2 + 1):
        if not _is_k_uniform(state, k, tol):
            break
        best = k
    return best


def orbit_state(state: PureState, angles: Sequence[float]) -> PureState:
    """Multiply term i (canonical order, i >= 1) by exp(1j * angles[i-1]);
    term 0 keeps its phase.  This spans the phase orbit of the state."""
    r = state.term_count
    if len(angles) != r - 1:
        raise LengthMismatch(f"need {r - 1} angles, got {len(angles)}")
    terms = [state.terms[0]]
    for (word, phase), angle in zip(state.terms[1:], angles):
        terms.append((word, phase * cmath.exp(1j * float(angle))))
    return PureState(state.qudits, state.levels, tuple(terms))


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
    terms = tuple((DIGITS36[i] + word, phase)
                  for i, part in enumerate(parts)
                  for word, phase in part.terms)
    return PureState(n + 1, d, terms)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho**2); equals sum of squared entry magnitudes for Hermitian rho."""
    return float(np.sum(np.abs(rho.data) ** 2))


def reduction_rank(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol."""
    return rank_by_eigenvalues(rho.data, tol)
