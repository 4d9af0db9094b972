"""Block certification kernels: kept-word codes per block of subsets, the
close-pair search, and the certifiers built on them."""

import itertools
import random
import time
import tracemalloc

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
from kuniform.oa import (IrredundancyWitness, _close_pairs, _kept_codes,
                         _subset_blocks, _subset_cells)
from kuniform.phases import _cells
from kuniform.states import _is_k_uniform, digits_to_word

from oracles import (
    DIGITS36,
    close_pairs,
    irredundancy_witness,
    naive_strength_ok,
    sparse_deviation,
    string_key_cells,
)


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

#: symbols per grid type: small ones, the top bit of the type's lanes (0x80
#: is also the top bit of a byte inside a wider lane) and a full lane
LANE_SYMBOLS = {np.uint8: (0, 1, 0x80, 0xFF),
                np.uint16: (0, 1, 0x80, 0x8000, 0xFFFF),
                np.uint32: (0, 1, 0x8000, 2 ** 31, 2 ** 32 - 1),
                np.uint64: (0, 1, 2 ** 31, 2 ** 63, 2 ** 64 - 1)}


@st.composite
def lane_grids(draw):
    """(dtype, rows): up to 20 columns, so rows span several 64-bit words
    and often end inside one, over one to three symbols of the type."""
    dtype = draw(st.sampled_from(sorted(LANE_SYMBOLS, key=str)))
    symbols = draw(st.lists(st.sampled_from(LANE_SYMBOLS[dtype]),
                            min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 20))
    row = st.tuples(*[st.sampled_from(symbols)] * n)
    return dtype, draw(st.lists(row, min_size=1, max_size=24))


@settings(max_examples=300, deadline=None)
@given(lane_grids(), st.data())
def test_close_pairs_match_a_plain_pair_scan(grid_rows, data):
    # batches of 1, 5 or 64 candidates split the row groups
    dtype, rows = grid_rows
    k = data.draw(st.integers(0, len(rows[0])))
    cells = data.draw(st.sampled_from([1, 5, 64, kuniform.oa._BLOCK_CELLS]))
    grid = np.array(rows, dtype=dtype)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
        u, v, support = _close_pairs(grid, k)
    assert (u < v).all()
    assert sorted(zip(u.tolist(), v.tolist())) == close_pairs(rows, k)
    assert support.dtype == np.uint8
    assert np.array_equal(support, np.packbits(grid[u] != grid[v], axis=1))


def test_close_pairs_memory_is_bounded_by_its_result():
    # 12-qubit all-words grid at k = 4: each row has 12 + 66 + 220 + 495
    # partners; beyond the result only one batch of candidates is held
    grid = np.array(list(itertools.product((0, 1), repeat=12)), dtype=np.uint8)
    tracemalloc.start()
    try:
        u, v, _ = _close_pairs(grid, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(u) == 4096 * 793 // 2
    assert (u < v).all() and (grid[u] != grid[v]).sum(axis=1).max() == 4
    assert (np.diff(np.sort(u * 4096 + v)) > 0).all()  # each pair once
    assert peak <= 3 * (u.nbytes + v.nbytes)


def test_irredundancy_memory_is_bounded_by_the_close_pairs():
    # the same 1.6M close pairs: the witness is built from their distinct
    # supports, with no pairs x N matrix
    array = OrthogonalArray(list(itertools.product((0, 1), repeat=12)), 2)
    u, v, _ = _close_pairs(array.grid, 4)
    tracemalloc.start()
    try:
        result = is_irredundant(array, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.witness == IrredundancyWitness((0, 1, 2, 3), (0, 256))
    assert peak <= 3 * (u.nbytes + v.nbytes)


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


# ---------------------------------------------------------------------------
# the close-pair consumers on fixtures and on many-level arrays
# ---------------------------------------------------------------------------

def column_ranks(rows):
    """Each symbol replaced by its rank among its column's symbols, which
    keeps the rows' equalities and the order of their kept words."""
    ranks = [sorted(set(column)) for column in zip(*rows)]
    return [tuple(ranks[c].index(x) for c, x in enumerate(row)) for row in rows]


def ranked_cells(grid, levels, k, ranks):
    """`_subset_cells`' incidences as `string_key_cells` lists them, each
    kept word spelled in the column ranks of its row."""
    for subsets, _, sub, u, v, bounds in _subset_cells(grid, levels, k):
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            kept = tuple(subsets[sub[start]].tolist())
            cell = tuple("".join(DIGITS36[ranks[row][c]] for c in kept)
                         for row in (u[start], v[start]))
            pairs = sorted((min(i, j), max(i, j)) for i, j in
                           zip(u[start:stop].tolist(), v[start:stop].tolist()))
            yield kept, cell, pairs


def check_consumers(rows, levels, cells_up_to):
    """is_irredundant's witnesses at every k, and the cell incidences at
    k = 1..cells_up_to, against the oracles."""
    array = OrthogonalArray(rows, levels)
    for k in range(array.factors + 1):
        want = irredundancy_witness(rows, k)
        assert is_irredundant(array, k).witness == (
            None if want is None else IrredundancyWitness(*want)), k
    ranks = column_ranks(rows)
    for k in range(1, cells_up_to + 1):
        want = [(kept, cell, sorted(pairs))
                for kept, cell, pairs in string_key_cells(ranks, k)]
        assert list(ranked_cells(array.grid, levels, k, ranks)) == want, k


def test_close_pair_consumers_on_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.oa")):
        array = parse_oa_file(path.read_text())
        check_consumers(array.rows, array.levels, array.factors - 1)
    for path in sorted(fixtures_dir.glob("*.ket")):
        state = load_ket(fixtures_dir, path.stem)
        rows = [tuple(row) for row in state.grid.tolist()]
        check_consumers(rows, state.levels, min(3, state.qudits - 1))


def five_column_rows(*symbols):
    return st.lists(st.tuples(*[st.sampled_from(symbols)] * 5),
                    min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(five_column_rows(0, 1, 0x80, 0xFF, 0x100, 299))
def test_close_pair_consumers_with_300_levels(rows):
    check_consumers(rows, 300, 4)


@settings(max_examples=100, deadline=None)
@given(five_column_rows(0, 1, 2 ** 32, 2 ** 39, 2 ** 40 - 1))
def test_close_pair_consumers_with_2_to_the_40_levels(rows):
    # `_kept_codes` folds the column ranks of 64-bit symbols
    check_consumers(rows, 2 ** 40, 4)
