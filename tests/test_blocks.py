"""Block certification kernels: kept-word codes per block of subsets, the
close-pair search, and the certifiers built on them."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.oa
from kuniform import (
    OrthogonalArray,
    PureState,
    is_irredundant,
    max_uniformity,
    parse_ket,
    parse_oa_file,
    uniformity,
    verify_strength,
)
from kuniform.oa import _close_pairs, _kept_codes, _subset_blocks
from kuniform.phases import _cells
from kuniform.states import _is_k_uniform, digits_to_word

from oracles import close_pairs, naive_strength_ok, sparse_deviation, string_key_cells


def load_ket(fixtures_dir, name):
    return parse_ket((fixtures_dir / f"{name}.ket").read_text())


def permute_qudits(state, perm):
    """The state with qudit perm[i] moved to position i."""
    terms = tuple(("".join(w[p] for p in perm), ph) for w, ph in state.terms)
    return PureState(state.qudits, state.levels, terms)


@st.composite
def small_arrays(draw):
    """Random rows, repeats allowed."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, 7))
    row = st.tuples(*[st.integers(0, d - 1)] * n)
    return OrthogonalArray(tuple(draw(st.lists(row, min_size=1, max_size=24))), d)


# ---------------------------------------------------------------------------
# block size never changes a result
# ---------------------------------------------------------------------------

def last_subset_fails_state(fixtures_dir):
    """The almost-3-uniform 7-qubit state with qudits reordered so that a
    failing triple is the lexicographically last one, (4, 5, 6)."""
    state = load_ket(fixtures_dir, "signed_n7_almost_k3")
    failing = next(s.kept_labels for s in uniformity(state, 3).subsets
                   if not s.maximally_mixed)
    rest = [q for q in range(7) if q + 1 not in failing]
    return permute_qudits(state, rest + [q - 1 for q in failing])


@pytest.mark.parametrize("cells", [1, 3 * 32, 7 * 32])
def test_block_size_does_not_change_reports(monkeypatch, fixtures_dir, cells):
    state = last_subset_fails_state(fixtures_dir)
    assert state.term_count == 32
    default = uniformity(state, 3)
    assert default.subsets[-1].kept_labels == (5, 6, 7)
    assert not default.subsets[-1].maximally_mixed
    arrays = [parse_oa_file(path.read_text())
              for path in sorted(fixtures_dir.glob("*.oa"))]
    expected = [(verify_strength(a, k), is_irredundant(a, k), list(_cells(a, k)))
                for a in arrays for k in range(1, a.factors // 2 + 1)]
    # 35 subsets in blocks of 1, 3 (last block 2) or 7 (exact)
    monkeypatch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
    size = max(1, cells // 32)
    blocks = list(_subset_blocks(7, 3, 32))
    assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert sum(len(b) for b in blocks) == 35
    assert uniformity(state, 3) == default
    assert _is_k_uniform(state, 3) is False
    assert max_uniformity(state) == 2
    assert [(verify_strength(a, k), is_irredundant(a, k), list(_cells(a, k)))
            for a in arrays for k in range(1, a.factors // 2 + 1)] == expected


# ---------------------------------------------------------------------------
# kept-word codes
# ---------------------------------------------------------------------------

def test_codes_do_not_overflow_at_d36_k13():
    # 36**13 > 2**63: the codes are re-ranked between folds
    rng = random.Random(13)
    n, d = 14, 36
    terms = {}
    while len(terms) < 12:
        word = [rng.choice([0, 1, 34, 35]) for _ in range(n)]
        twin = list(word)
        twin[rng.randrange(n)] = rng.randrange(d)
        for w, phase in ((word, 1.0), (twin, rng.choice([-1.0, 1j]))):
            terms[digits_to_word(w)] = phase
    state = PureState(n, d, tuple(terms.items()))
    report = uniformity(state, 13)
    assert len(report.subsets) == n and not report.certified
    for sub in report.subsets:
        kept = [c - 1 for c in sub.kept_labels]
        assert sub.deviation == pytest.approx(
            sparse_deviation(state.terms, n, d, kept), abs=1e-15)
        assert sub.eigenvalues is None
    rows = [tuple(int(c, 36) for c in w) for w in state.words]
    grid = np.array(rows, dtype=np.uint8)
    subsets = np.array(list(itertools.combinations(range(n), 13)))
    codes = _kept_codes(grid, d, subsets)
    assert codes.dtype == np.int64
    for kept, code in zip(subsets, codes):
        words = [tuple(row[c] for c in kept) for row in rows]
        for i, j in itertools.combinations(range(len(rows)), 2):
            assert (code[i] < code[j]) == (words[i] < words[j])
            assert (code[i] == code[j]) == (words[i] == words[j])


def test_huge_subset_count_fails_fast():
    # C(40, 20) is about 1.4e11 subsets; the first block already fails
    rng = random.Random(40)
    words = {"".join(rng.choice("01") for _ in range(40)) for _ in range(8)}
    state = PureState(40, 2, tuple((w, 1.0) for w in words))
    start = time.perf_counter()
    assert _is_k_uniform(state, 20) is False
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# against the oracles
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(small_arrays(), st.data())
def test_close_pairs_match_a_plain_pair_scan(array, data):
    k = data.draw(st.integers(0, array.factors))
    grid = np.asarray(array.rows, dtype=np.uint8)
    u, v = _close_pairs(grid, k)
    assert sorted(zip(u.tolist(), v.tolist())) == close_pairs(array.rows, k)


@st.composite
def linear_arrays(draw):
    """Arrays over Z_d: every word of m free columns, then columns that are
    sums of free ones, stacked 1-2 times and row-shuffled; strengths vary."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, 3))
    extra = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=m, max_size=m),
                          max_size=4))
    copies = draw(st.integers(1, 2))
    rows = []
    for free in itertools.product(range(d), repeat=m):
        row = list(free) + [sum(a * x for a, x in zip(c, free)) % d for c in extra]
        rows.extend([tuple(row)] * copies)
    rows = draw(st.permutations(rows))
    return OrthogonalArray(tuple(rows), d)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_arrays(), linear_arrays()), st.data())
def test_verify_strength_matches_naive_counting(array, data):
    k = data.draw(st.integers(0, array.factors))
    assert verify_strength(array, k) == naive_strength_ok(
        array.rows, array.levels, k)


def test_verify_strength_with_many_levels():
    array = OrthogonalArray(tuple((i, (7 * i) % 1000) for i in range(1000)), 1000)
    assert verify_strength(array, 1)
    assert not verify_strength(array, 2)


def test_cells_match_string_keys_on_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.oa")):
        array = parse_oa_file(path.read_text())
        for k in range(1, array.factors // 2 + 1):
            want = [(kept, cell, sorted(pairs))
                    for kept, cell, pairs in string_key_cells(array.rows, k)]
            assert list(_cells(array, k)) == want, (path.name, k)


@settings(max_examples=200, deadline=None)
@given(small_arrays(), st.data())
def test_cells_match_string_keys(array, data):
    k = data.draw(st.integers(1, array.factors))
    want = [(kept, cell, sorted(pairs))
            for kept, cell, pairs in string_key_cells(array.rows, k)]
    assert list(_cells(array, k)) == want
