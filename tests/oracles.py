"""Independent oracles used by the test suite.

Everything in this file is deliberately written from first principles and
shares no code with the library under test: naive tuple-counting for array
strength, a dense state-vector partial trace, a literal outer-product partial
trace for very small systems, and brute-force sign search.  Where a
well-tested third-party routine exists (numpy's eigensolver, sympy's
irreducibility test) the oracle defers to it.
"""

from __future__ import annotations

import re
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


def all_words(n, d):
    return ["".join(DIGITS36[v] for v in t) for t in product(range(d), repeat=n)]
