"""Independent oracles used by the test suite.

Everything in this file is deliberately written from first principles and
shares no code with the library under test: naive tuple-counting for array
strength, a dense state-vector partial trace, a literal outer-product partial
trace for very small systems, and brute-force sign search.  Where a
well-tested third-party routine exists (numpy's eigensolver, sympy's
irreducibility test) the oracle defers to it.  The one exception is
`per_subset_report`, which checks only how the library assembles its
uniformity report and so takes the numbers it assembles from the library.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

DIGITS36 = "0123456789abcdefghijklmnopqrstuvwxyz"


# ---------------------------------------------------------------------------
# fixture readers (independent of the library's parsers)
# ---------------------------------------------------------------------------

def read_ket_fixture(path):
    """Return (n, levels, [(word, phase)]) from a fixture ket file.

    Only handles the '+|word>' / '-|word>' line-per-term layout used by the
    bundled fixtures; anything else is a hard error so that fixture drift is
    caught immediately.
    """
    terms = []
    for raw in open(path, encoding="utf-8"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"([+-])\|([0-9a-z]+)>", line)
        if not m:
            raise ValueError(f"unexpected fixture line in {path}: {raw!r}")
        terms.append((m.group(2), 1.0 if m.group(1) == "+" else -1.0))
    if not terms:
        raise ValueError(f"no terms in {path}")
    n = len(terms[0][0])
    if any(len(w) != n for w, _ in terms):
        raise ValueError(f"ragged words in {path}")
    levels = max(2, max(DIGITS36.index(c) for w, _ in terms for c in w) + 1)
    return n, levels, terms


def read_oa_fixture(path):
    """Return ((r, n, d, k), rows) from a fixture catalog file."""
    params = None
    rows = []
    for raw in open(path, encoding="utf-8"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("oa "):
            fields = line.split()
            params = tuple(int(x) for x in fields[1:])
            continue
        rows.append(tuple(DIGITS36.index(c) for c in line))
    if params is None or not rows:
        raise ValueError(f"bad fixture {path}")
    return params, rows


# ---------------------------------------------------------------------------
# orthogonal-array strength, by naive counting
# ---------------------------------------------------------------------------

def naive_strength_ok(rows, d, k):
    """True iff every k-column projection hits every k-tuple equally often."""
    r = len(rows)
    n = len(rows[0])
    if k == 0:
        return True
    if k > n or r % (d ** k) != 0:
        return False
    lam = r // d ** k
    for cols in combinations(range(n), k):
        counts = {}
        for row in rows:
            key = tuple(row[c] for c in cols)
            counts[key] = counts.get(key, 0) + 1
        if len(counts) != d ** k or any(v != lam for v in counts.values()):
            return False
    return True


def naive_max_strength(rows, d):
    k = 0
    while k + 1 <= len(rows[0]) and naive_strength_ok(rows, d, k + 1):
        k += 1
    return k


def irredundancy_witness(rows, k):
    """None when removing any k columns leaves the rows pairwise distinct;
    otherwise (removed, (i, j)) for the lexicographically smallest such
    removed set, j being the first row that repeats an earlier row i."""
    n = len(rows[0])
    for removed in combinations(range(n), k):
        keep = [j for j in range(n) if j not in removed]
        seen = {}
        for i, row in enumerate(rows):
            key = tuple(row[j] for j in keep)
            if key in seen:
                return removed, (seen[key], i)
            seen[key] = i
    return None


def close_pairs(rows, k):
    """Every row pair (i, j), i < j, that differs on at most k columns, by a
    plain scan of all pairs."""
    return [(i, j) for i, j in combinations(range(len(rows)), 2)
            if sum(a != b for a, b in zip(rows[i], rows[j])) <= k]


def string_key_cells(rows, k):
    """(kept, cell, pairs) for each off-diagonal reduction cell fed by at
    least one row pair, in lexicographic (kept, cell) order.

    Rows are grouped by their dropped-column words as string keys; two rows
    of one group feed the cell (a, b), a <= b, of their kept words a and b.
    A cell's pairs (i < j) are listed group by group, groups in order of
    first appearance.
    """
    n = len(rows[0])
    words = ["".join(DIGITS36[v] for v in row) for row in rows]
    out = []
    for kept in combinations(range(n), k):
        dropped = [j for j in range(n) if j not in kept]
        groups = {}
        for i, w in enumerate(words):
            groups.setdefault("".join(w[j] for j in dropped), []).append(i)
        cells = {}
        for members in groups.values():
            for i, j in combinations(members, 2):
                a = "".join(words[i][c] for c in kept)
                b = "".join(words[j][c] for c in kept)
                cells.setdefault((a, b) if a <= b else (b, a), []).append((i, j))
        out.extend((kept, cell, cells[cell]) for cell in sorted(cells))
    return out


# ---------------------------------------------------------------------------
# finite fields, array constructions and transformations, cell by cell
# ---------------------------------------------------------------------------

def _poly_mul_mod(a, b, modulus, p):
    """Product of two low-degree-first coefficient lists over GF(p),
    reduced by the monic `modulus`; the result has len(modulus) - 1
    coefficients."""
    m = len(modulus) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, m - 1, -1):
        lead = prod[top]
        for i in range(m + 1):
            prod[top - m + i] = (prod[top - m + i] - lead * modulus[i]) % p
    return prod[:m]


def gf_tables(q):
    """(p, add, mul) for GF(q) as lists of lists over element codes.

    Codes are base-p digit vectors, least significant digit the constant
    coefficient.  The modulus is the first monic degree-m polynomial, in
    low-degree-first lexicographic order of its lower coefficients, that is
    not a product of two monic polynomials of positive degree.
    """
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = 0
    while p ** m < q:
        m += 1
    if p ** m != q:
        raise ValueError(f"{q} is not a prime power")

    def monic(degree):
        return [list(low) + [1] for low in product(range(p), repeat=degree)]

    reducible = set()
    for d1 in range(1, m // 2 + 1):
        for f in monic(d1):
            for g in monic(m - d1):
                prod = [0] * (m + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] = (prod[i + j] + x * y) % p
                reducible.add(tuple(prod))
    modulus = next(f for f in monic(m) if tuple(f) not in reducible)

    def digits(code):
        return [code // p ** i % p for i in range(m)]

    def code(ds):
        return sum(v * p ** i for i, v in enumerate(ds))

    add = [[code([(x + y) % p for x, y in zip(digits(a), digits(b))])
            for b in range(q)] for a in range(q)]
    if m == 1:
        mul = [[a * b % p for b in range(q)] for a in range(q)]
    else:
        mul = [[code(_poly_mul_mod(digits(a), digits(b), modulus, p))
                for b in range(q)] for a in range(q)]
    return p, add, mul


def base_digits(code, d, width):
    """Base-d digits of code, least significant first."""
    out = []
    for _ in range(width):
        out.append(code % d)
        code //= d
    return tuple(out)


def rao_rows(d, n):
    """Rows of the Rao-Hamming OA(d**n, (d**n - 1)/(d - 1), d, 2): rows are
    the vectors of GF(d)**n in code order, columns the nonzero vectors whose
    first nonzero coordinate is 1, cells their dot products."""
    _, add, mul = gf_tables(d)
    columns = [v for v in (base_digits(c, d, n) for c in range(1, d ** n))
               if next(x for x in v if x) == 1]
    rows = []
    for code in range(d ** n):
        x = base_digits(code, d, n)
        row = []
        for c in columns:
            acc = 0
            for xi, ci in zip(x, c):
                acc = add[acc][mul[xi][ci]]
            row.append(acc)
        rows.append(tuple(row))
    return rows


def _evaluation_rows(d, k):
    """(coefficients, evaluations) per polynomial c_0 + ... + c_{k-1} x**(k-1)
    over GF(d), polynomials in code order (c_0 least significant), each
    evaluated at every element as the sum of c_j * e**j."""
    _, add, mul = gf_tables(d)
    out = []
    for code in range(d ** k):
        coeffs = base_digits(code, d, k)
        evals = []
        for e in range(d):
            acc, power = 0, 1
            for c in coeffs:
                acc = add[acc][mul[c][power]]
                power = mul[power][e]
            evals.append(acc)
        out.append((coeffs, evals))
    return out


def bush_rows(d, k):
    """Rows of the Bush OA(d**k, d + 1, d, k): leading coefficient, then the
    polynomial's values at every field element."""
    return [tuple([c[k - 1]] + e) for c, e in _evaluation_rows(d, k)]


def bush_extended_rows(d):
    """Rows of the extended Bush OA(d**3, d + 2, d, 3): (a, b, then
    a e**2 + b e + c at every field element) for the code (a, b, c), c
    least significant."""
    return [tuple([c[2], c[1]] + e) for c, e in _evaluation_rows(d, 3)]


def paley_entries(q):
    """The normalized Paley type I Hadamard matrix of order q + 1 (q prime,
    q = 3 mod 4): I + S with S bordered by +1 (top) and -1 (left) around
    the quadratic-residue character chi(i - j), then normalized."""
    residues = {x * x % q for x in range(1, q)}
    size = q + 1
    h = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == 0:
                s = 0 if j == 0 else 1
            elif j == 0:
                s = -1
            else:
                a = (i - j) % q
                s = 0 if a == 0 else (1 if a in residues else -1)
            h[i][j] = s + (1 if i == j else 0)
    return normalize_entries(h)


def normalize_entries(h):
    """Negate the rows that start with -1, then the columns whose first
    entry is -1."""
    h = [list(row) for row in h]
    for row in h:
        if row[0] == -1:
            row[:] = [-v for v in row]
    for j in range(len(h)):
        if h[0][j] == -1:
            for row in h:
                row[j] = -row[j]
    return [tuple(row) for row in h]


def remove_columns_rows(rows, cols):
    drop = set(cols)
    return [tuple(v for j, v in enumerate(row) if j not in drop)
            for row in rows]


def derive_rows(rows, symbol):
    return [row[1:] for row in rows if row[0] == symbol]


def permute_rows_rows(rows, perm):
    return [rows[i] for i in perm]


def permute_columns_rows(rows, perm):
    return [tuple(row[j] for j in perm) for row in rows]


def permute_levels_rows(rows, perms):
    return [tuple(perms[j][v] for j, v in enumerate(row)) for row in rows]


# ---------------------------------------------------------------------------
# states as base-36 string terms
# ---------------------------------------------------------------------------

class StateRejected(ValueError):
    """The string-term constructor refused its input; `kind` names the
    library error class that stands for the same fault."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class StringState:
    """A state kept as (word, phase) string terms: distinct length-N words
    over the first `levels` base-36 digits with unit-modulus phases,
    validated term by term and sorted by word."""

    qudits: int
    levels: int
    terms: tuple

    def __post_init__(self):
        if self.qudits < 1:
            raise StateRejected("ParameterViolation", "need at least one qudit")
        if not 2 <= self.levels <= len(DIGITS36):
            raise StateRejected("ParameterViolation",
                                f"levels must be in 2..{len(DIGITS36)}")
        if not self.terms:
            raise StateRejected("ParameterViolation", "no terms")
        alphabet = DIGITS36[: self.levels]
        cleaned = []
        for word, phase in self.terms:
            if len(word) != self.qudits:
                raise StateRejected("ShapeMismatch",
                                    f"word {word!r} is not length {self.qudits}")
            if any(c not in alphabet for c in word):
                raise StateRejected("ParameterViolation",
                                    f"word {word!r} uses symbols outside "
                                    f"0..{self.levels - 1}")
            phase = complex(phase)
            if abs(abs(phase) - 1.0) > 1e-12:
                raise StateRejected("ParameterViolation",
                                    f"phase {phase} is not unit-modulus")
            cleaned.append((word, phase))
        cleaned.sort(key=lambda t: t[0])
        for (wa, _), (wb, _) in zip(cleaned, cleaned[1:]):
            if wa == wb:
                raise StateRejected("DuplicateRows", f"duplicate word {wa!r}")
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def words(self):
        return tuple(w for w, _ in self.terms)

    @property
    def phases(self):
        return tuple(p for _, p in self.terms)


def string_ket(state):
    """Ket text of a StringState: space-separated terms in word order, sign
    form for phases within 1e-12 of +/-1, else an e^{i<angle>} tag."""
    parts = []
    for word, phase in state.terms:
        if abs(phase - 1.0) <= 1e-12:
            parts.append(f"+|{word}>")
        elif abs(phase + 1.0) <= 1e-12:
            parts.append(f"-|{word}>")
        else:
            parts.append(f"+e^{{i{cmath.phase(phase)!r}}}|{word}>")
    return " ".join(parts) + "\n"


# ---------------------------------------------------------------------------
# ket text, one character at a time
# ---------------------------------------------------------------------------

class KetSyntaxError(ValueError):
    """Malformed ket text: the message and the 1-based line and column the
    library's ParseError reports."""

    def __init__(self, message, line, column):
        super().__init__(message)
        self.message, self.line, self.column = message, line, column


def scan_ket(text):
    """The (word, phase) terms of ket text in text order, read by a
    character-at-a-time scanner; raises KetSyntaxError at the first fault."""
    source = "\n".join(line.partition("#")[0] for line in text.splitlines())
    terms = []
    pos = 0
    size = len(source)

    def fail(message, p):
        line = source.count("\n", 0, p) + 1
        col = p - (source.rfind("\n", 0, p) + 1) + 1
        raise KetSyntaxError(message, line, col)

    while True:
        while pos < size and source[pos].isspace():
            pos += 1
        if pos >= size:
            break
        sign = 1.0
        if source[pos] in "+-":
            sign = 1.0 if source[pos] == "+" else -1.0
            pos += 1
            while pos < size and source[pos].isspace():
                pos += 1
        phase = complex(sign)
        if pos < size and source[pos] == "e":
            end = source.find("}", pos)
            if not source.startswith("e^{i", pos) or end == -1:
                fail("malformed phase tag; expected e^{i<angle>}", pos)
            angle_text = source[pos + 4:end]
            try:
                angle = float(angle_text)
            except ValueError:
                fail(f"bad angle {angle_text!r}", pos + 4)
            phase = sign * cmath.exp(1j * angle)
            pos = end + 1
        if pos >= size or source[pos] != "|":
            fail("expected '|' opening a ket", pos)
        pos += 1
        start = pos
        while pos < size and source[pos] in DIGITS36:
            pos += 1
        if pos == start:
            fail("empty ket word", pos)
        if pos >= size or source[pos] != ">":
            fail("expected '>' closing the ket", pos)
        word = source[start:pos]
        pos += 1
        terms.append((word, phase))
    return terms


# ---------------------------------------------------------------------------
# partial traces
# ---------------------------------------------------------------------------

def _state_vector(terms, n, d):
    """Dense amplitude vector; index is the big-endian base-d word value."""
    psi = np.zeros(d ** n, dtype=complex)
    for word, phase in terms:
        idx = 0
        for ch in word:
            idx = idx * d + DIGITS36.index(ch)
        if psi[idx] != 0:
            raise ValueError(f"duplicate word {word}")
        psi[idx] = phase
    return psi


def dense_reduced_density(terms, n, d, kept):
    """Reduced density matrix via the full d**n state vector.

    Normalisation divides by <psi|psi| so it is independent of any term-count
    convention in the library.
    """
    kept = tuple(sorted(kept))
    dropped = tuple(i for i in range(n) if i not in kept)
    psi = _state_vector(terms, n, d)
    norm2 = float(np.vdot(psi, psi).real)
    tensor = psi.reshape((d,) * n)
    tensor = np.transpose(tensor, kept + dropped)
    mat = tensor.reshape(d ** len(kept), d ** len(dropped))
    return (mat @ mat.conj().T) / norm2


def micro_reduced_density(terms, n, d, kept):
    """Literal |psi><psi| outer product followed by index-by-index tracing.

    Pure-Python and quadratic in the Hilbert-space dimension; capped so the
    suite stays fast.  This is a second, independent route used to validate
    the dense oracle itself on tiny systems.
    """
    dim = d ** n
    if dim > 256:
        raise ValueError("micro oracle capped at dimension 256")
    kept = tuple(sorted(kept))
    dropped = tuple(i for i in range(n) if i not in kept)
    psi = _state_vector(terms, n, d)
    norm2 = sum(abs(a) ** 2 for a in psi)
    rho = np.outer(psi, psi.conj()) / norm2

    def digits(value):
        out = []
        for _ in range(n):
            out.append(value % d)
            value //= d
        return list(reversed(out))  # big-endian, matching _state_vector

    kdim = d ** len(kept)
    out = np.zeros((kdim, kdim), dtype=complex)
    for a in range(dim):
        da = digits(a)
        for b in range(dim):
            db = digits(b)
            if any(da[i] != db[i] for i in dropped):
                continue
            ia = 0
            for i in kept:
                ia = ia * d + da[i]
            ib = 0
            for i in kept:
                ib = ib * d + db[i]
            out[ia, ib] += rho[a, b]
    return out


def sparse_deviation(terms, n, d, kept):
    """max |rho - I/d**k| over the kept columns, from the terms alone.

    rho's diagonal is the kept-word counts over r (a kept word no term has
    counts 0, and exists when fewer than d**k words occur); an off-diagonal
    cell (a, b) sums phase_i * conj(phase_j) over term pairs whose words
    agree off the kept columns and read a and b on them.  Works for any d**k,
    since only words that occur are keyed.
    """
    kept = tuple(sorted(kept))
    dropped = [i for i in range(n) if i not in kept]
    r = len(terms)
    target = 1.0 / d ** len(kept)
    counts = {}
    for word, _ in terms:
        key = tuple(word[c] for c in kept)
        counts[key] = counts.get(key, 0) + 1
    worst = max(abs(c / r - target) for c in counts.values())
    if len(counts) < d ** len(kept):
        worst = max(worst, target)
    cells = {}
    for (wi, pi), (wj, pj) in combinations(terms, 2):
        if all(wi[c] == wj[c] for c in dropped):
            a = tuple(wi[c] for c in kept)
            b = tuple(wj[c] for c in kept)
            value = pi * np.conj(pj) if a < b else pj * np.conj(pi)
            cell = min(a, b), max(a, b)
            cells[cell] = cells.get(cell, 0) + value
    return max([worst] + [abs(v) / r for v in cells.values()])


def eigvalsh(matrix):
    """Reference Hermitian eigenvalues (ascending)."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=complex))


def maximally_mixed_ok(terms, n, d, k, tol=1e-9):
    """True iff every k-qudit reduction equals I/d**k (dense-oracle route)."""
    eye = np.eye(d ** k) / d ** k
    for kept in combinations(range(n), k):
        rho = dense_reduced_density(terms, n, d, kept)
        if np.max(np.abs(rho - eye)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# uniformity reports, one record at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetReport:
    """The per-subset record as a frozen dataclass, with the field names,
    default and repr of the library's record."""

    kept_labels: tuple
    maximally_mixed: bool
    deviation: float
    eigenvalues: object = None


def per_subset_report(state, k, tol=1e-9):
    """(certified, records) of a state's k-uniformity report, one record
    per subset built in a Python loop.  Only the record assembly is under
    test here: the deviation blocks, reductions and eigenvalues come from
    the library itself (its kernels are checked by the other oracles)."""
    from kuniform.linalg import jacobi_eigvalsh
    from kuniform.states import EIGENVALUE_DIM_LIMIT, _deviations, reduce

    reports = []
    for subsets, deviations, *_ in _deviations(state, k, tol):
        for kept, deviation in zip(subsets.tolist(), deviations.tolist()):
            ok = deviation <= tol
            eigenvalues = None
            if not ok and state.levels ** k <= EIGENVALUE_DIM_LIMIT:
                rho = reduce(state, kept)
                eigenvalues = tuple(float(v)
                                    for v in jacobi_eigvalsh(rho.data))
            reports.append(SubsetReport(tuple(c + 1 for c in kept), ok,
                                        deviation, eigenvalues))
    return all(s.maximally_mixed for s in reports), tuple(reports)


# ---------------------------------------------------------------------------
# partition graphs, one partition at a time
# ---------------------------------------------------------------------------

def graphs_identical_by_partitions(rows, k):
    """True iff every k-column partition gives the same edge set
    {(kept word, dropped word)} of the rows, each word read in column
    order: the definition, compared partition by partition."""
    n = len(rows[0])
    edge_sets = set()
    for kept in combinations(range(n), k):
        dropped = [c for c in range(n) if c not in kept]
        edge_sets.add(frozenset((tuple(row[c] for c in kept),
                                 tuple(row[c] for c in dropped))
                                for row in rows))
    return len(edge_sets) == 1


def product_across(edges):
    """True iff the (a, b) pairs of `edges` are every pair of an active a
    with an active b: the product set, built."""
    pairs = {(a, b) for a, b, *_ in edges}
    return pairs == {(a, b) for a, _ in pairs for _, b in pairs}


# ---------------------------------------------------------------------------
# sign search
# ---------------------------------------------------------------------------

def brute_force_sign_assignments(words, k, limit_bits=16):
    """All bit vectors (bit 0 forced to 0) whose (-1)**bit phases make the
    state built on `words` k-uniform.  Returns ints; bit i is row i's bit."""
    r = len(words)
    if r > limit_bits:
        raise ValueError("brute force capped")
    n = len(words[0])
    d = max(2, max(DIGITS36.index(c) for w in words for c in w) + 1)
    found = []
    for bits in range(0, 2 ** r, 2):  # even ints <=> bit 0 clear
        terms = [(w, -1.0 if (bits >> i) & 1 else 1.0) for i, w in enumerate(words)]
        if maximally_mixed_ok(terms, n, d, k, tol=1e-9):
            found.append(bits)
    return found


# ---------------------------------------------------------------------------
# number theory / algebra reference results
# ---------------------------------------------------------------------------

def sympy_irreducible(coeffs_low_first, p):
    """Irreducibility over GF(p) of a poly given by low-degree-first coeffs."""
    from sympy import GF, Poly, Symbol

    x = Symbol("x")
    return Poly(list(reversed(coeffs_low_first)), x, domain=GF(p)).is_irreducible


def rao_closed_form_d2(n, k):
    """Closed-form minimal-run values for two-level arrays, k = 1..5."""
    if k == 1:
        return 2
    if k == 2:
        return n + 1
    if k == 3:
        return 2 * n
    if k == 4:
        return n * (n + 1) // 2 + 1
    if k == 5:
        return n * n - n + 2
    raise ValueError(k)


def hadamard_order_by_windows(n):
    """The smallest order kappa = 2**v whose window
    2**(v-1) + 2 <= n <= 2**v - 1 holds n, or for n = 2**t and 2**t + 1
    (t >= 3) the smallest kappa = 3 * 2**(v-1) whose window
    3 * 2**(v-2) + 2 <= n <= 3 * 2**(v-1) holds n, searched window by
    window."""
    if any(n in (2 ** t, 2 ** t + 1) for t in range(3, n.bit_length() + 1)):
        v = 3
        while not 3 * 2 ** (v - 2) + 2 <= n <= 3 * 2 ** (v - 1):
            v += 1
        return 3 * 2 ** (v - 1)
    v = 3
    while not 2 ** (v - 1) + 2 <= n <= 2 ** v - 1:
        v += 1
    return 2 ** v


def all_words(n, d):
    return ["".join(DIGITS36[v] for v in t) for t in product(range(d), repeat=n)]
