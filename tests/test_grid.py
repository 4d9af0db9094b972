"""The integer-grid form of arrays: storage, equality, validation, and the
constructions and transformations that work on it, against the
cell-by-cell oracles."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.oa
import kuniform.phases
from kuniform import (
    DuplicateRows,
    HadamardMatrix,
    NotAnOAAtStrength,
    OrthogonalArray,
    ParameterMismatch,
    ParameterViolation,
    ShapeMismatch,
    SymbolOutOfRange,
    bush_extended_oa,
    bush_oa,
    constraint_system,
    derive,
    extend_with_symbol,
    hadamard,
    juxtapose,
    max_strength,
    normalize,
    oa_index,
    paley_type1,
    parse_oa_file,
    permute_columns,
    permute_levels,
    permute_rows,
    rao_oa,
    remove_columns,
    state_from_oa,
    write_oa_file,
)
from kuniform.constructions import MAX_GRID

import oracles

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


# ---------------------------------------------------------------------------
# storage, equality, immutability
# ---------------------------------------------------------------------------

def test_grid_is_the_smallest_unsigned_type():
    assert OrthogonalArray(((0, 1),), 2).grid.dtype == np.uint8
    assert OrthogonalArray(((0, 255),), 256).grid.dtype == np.uint8
    assert OrthogonalArray(((0, 299),), 300).grid.dtype == np.uint16
    assert OrthogonalArray(((0, 70000),), 70001).grid.dtype == np.uint32


@pytest.mark.parametrize("levels", [2, 40, 300])
def test_rows_are_python_ints_for_both_input_forms(levels):
    rows = ((0, levels - 1, 1), (levels - 1, 0, 0))
    for given_rows in (rows, np.array(rows, dtype=np.int64),
                       np.array(rows, dtype=np.uint16)):
        a = OrthogonalArray(given_rows, levels)
        assert a.rows == rows
        assert all(type(v) is int for row in a.rows for v in row)
        assert a.column(1) == (levels - 1, 0)
        assert all(type(v) is int for v in a.column(1))


def test_tuple_and_ndarray_built_arrays_are_equal_and_hash_alike():
    rows = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    a = OrthogonalArray(rows, 2, 2)
    for grid in (np.array(rows), np.array(rows, dtype=np.uint8),
                 np.array(rows, dtype=np.int32).T.copy().T):
        b = OrthogonalArray(grid, 2, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != OrthogonalArray(rows, 2)              # strength differs
    assert OrthogonalArray(rows, 2) != OrthogonalArray(rows, 3)  # levels
    assert a != OrthogonalArray(rows[::-1], 2, 2)     # row order differs
    assert a != OrthogonalArray(rows[:2], 2)          # shape differs
    assert a != rows


def test_grid_is_read_only_and_the_array_is_frozen():
    source = np.array(((0, 1), (1, 0)))
    a = OrthogonalArray(source, 2)
    with pytest.raises(ValueError):
        a.grid[0, 0] = 1
    source[0, 0] = 1  # the array keeps its own copy
    assert a.rows == ((0, 1), (1, 0))
    for name, value in (("levels", 3), ("strength", 1), ("grid", source),
                        ("rows", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.levels
    assert a.rows == ((0, 1), (1, 0)) and a.levels == 2


def test_arrays_pickle_and_keep_their_strength_check():
    a = bush_oa(3, 2)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and b.strength == 2 and not b.grid.flags.writeable


@pytest.mark.parametrize("as_array", [False, True])
def test_bad_input_raises_the_same_errors_for_both_forms(as_array):
    def build(rows, levels=3):
        return OrthogonalArray(np.array(rows) if as_array else rows, levels)

    with pytest.raises(ParameterViolation):
        build(())
    with pytest.raises(ParameterViolation):
        build(((), ()))
    with pytest.raises(SymbolOutOfRange):
        build(((0, 1), (2, 3)))
    with pytest.raises(SymbolOutOfRange):
        build(((0, -1), (2, 0)))
    with pytest.raises(ParameterViolation):
        build(((0, 1),), levels=1)
    ragged = ((0, 1), (2,))
    with pytest.raises(ShapeMismatch):
        build(np.array(ragged, dtype=object) if as_array else ragged)


def test_a_single_repeated_row_is_refused():
    rows = ((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    a = OrthogonalArray(rows, 2, 1)
    with pytest.raises(DuplicateRows):
        state_from_oa(a)
    with pytest.raises(DuplicateRows):
        constraint_system(a, 1)
    assert state_from_oa(OrthogonalArray(rows[1:], 2)).term_count == 5


def test_transforms_carry_a_declared_strength_without_verifying(monkeypatch):
    # the carried strength itself is checked against brute force and the
    # naive oracle in test_certified.py
    a = bush_oa(3, 2)
    calls = []

    def refuse(array, k):
        calls.append(k)
        return False

    monkeypatch.setattr(kuniform.oa, "verify_strength", refuse)
    results = [permute_rows(a, range(a.runs)[::-1]),
               permute_columns(a, [3, 2, 1, 0]),
               permute_levels(a, [[1, 2, 0]] * 4),
               derive(a, 0),
               juxtapose([a, a]),
               extend_with_symbol([a, a, a]),
               remove_columns(a, [0]),
               remove_columns(a, [0, 1, 2])]
    assert calls == []
    assert [b.strength for b in results] == [2, 2, 2, 1, 2, 2, 2, 1]


def test_catalog_strength_is_verified_once(monkeypatch):
    want = bush_oa(3, 2)
    text = write_oa_file(want)
    calls = []
    real = kuniform.oa.verify_strength

    def spy(array, k):
        calls.append(k)
        return real(array, k)

    monkeypatch.setattr(kuniform.oa, "verify_strength", spy)
    assert parse_oa_file(text) == want
    assert calls == [2]
    with pytest.raises(ParameterMismatch, match="declared strength 3"):
        parse_oa_file(text.replace("oa 9 4 3 2", "oa 9 4 3 3"))


def spy_on_strength(monkeypatch):
    """The k of every `oa._strength` call from now on that the proven
    strength it is given does not answer, in order, wherever it is
    looked up."""
    calls = []
    real = kuniform.oa._strength

    def spy(grid, d, k, reach=-1, proven=0):
        if not 0 <= k <= proven:
            calls.append(k)
        return real(grid, d, k, reach, proven)

    for module in (kuniform.oa, kuniform.phases):
        monkeypatch.setattr(module, "_strength", spy)
    return calls


def test_a_declared_strength_answers_strength_queries(monkeypatch,
                                                      fixtures_dir):
    a = bush_oa(3, 2)
    signfix = parse_oa_file(
        (fixtures_dir / "oa_8_5_2_2_signfix.oa").read_text(encoding="utf-8"))
    undeclared = OrthogonalArray(signfix.grid, 2)
    calls = spy_on_strength(monkeypatch)
    assert (oa_index(a, 2), oa_index(a, 1), oa_index(a, 0)) == (1, 3, 9)
    system = constraint_system(signfix, 2)
    assert calls == []
    kernels = {"_pair_census": 0, "_kept_codes": 0}
    for name in kernels:
        def count(*args, _name=name, _real=getattr(kuniform.oa, name)):
            kernels[_name] += 1
            return _real(*args)
        monkeypatch.setattr(kuniform.oa, name, count)
    assert max_strength(a) == 2 and max_strength(signfix) == 2
    # no scan past either declared strength: each walk asks strength 3,
    # which 9 rows over 3 levels cannot have, and one pair census answers
    # for signfix
    assert calls == [3, 3]
    assert kernels == {"_pair_census": 1, "_kept_codes": 0}
    calls.clear()
    # above the declared strength, and on undeclared arrays, the rows are
    # checked as before, with the same answers and errors; constraint_system
    # proves the 8 x 5 array's strength by its own pair census
    with pytest.raises(NotAnOAAtStrength):
        oa_index(a, 3)
    with pytest.raises(ParameterViolation):
        oa_index(a, -1)
    assert constraint_system(undeclared, 2) == system
    assert oa_index(undeclared, 2) == 2
    with pytest.raises(NotAnOAAtStrength):
        constraint_system(undeclared, 3)
    assert calls == [3, -1, 2, 2, 3]


def test_unpickling_verifies_the_strength_again(monkeypatch):
    a = bush_oa(3, 2)
    calls = spy_on_strength(monkeypatch)
    assert pickle.loads(pickle.dumps(a)) == a
    assert calls == [2]


# ---------------------------------------------------------------------------
# constructions against the cell-by-cell oracles
# ---------------------------------------------------------------------------

def _bush_cases():
    return [(q, k) for q in PRIME_POWERS for k in range(1, q + 2)
            if q ** k <= MAX_GRID]


@pytest.mark.parametrize("q,k", _bush_cases())
def test_bush_equals_the_oracle(q, k):
    a = bush_oa(q, k)
    assert a.grid.dtype == np.uint8
    assert a.rows == tuple(oracles.bush_rows(q, k))


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_bush_extended_equals_the_oracle(q):
    assert bush_extended_oa(q).rows == tuple(oracles.bush_extended_rows(q))


def _rao_cases():
    # every n whose array has at most 2**17 cells (rao_oa(2, 14) alone
    # would have 2**28)
    return [(q, n) for q in PRIME_POWERS for n in range(2, 15)
            if q ** n * (q ** n - 1) // (q - 1) <= 1 << 17]


@pytest.mark.parametrize("q,n", _rao_cases())
def test_rao_equals_the_oracle(q, n):
    assert rao_oa(q, n).rows == tuple(oracles.rao_rows(q, n))


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 31, 43])
def test_paley_equals_the_oracle(q):
    assert list(paley_type1(q).entries) == oracles.paley_entries(q)


def test_normalize_equals_the_oracle():
    rng = np.random.default_rng(5)
    for order in (4, 8, 12, 20):
        h = hadamard(order).as_array()
        h = h * rng.choice((-1, 1), size=(order, 1))
        h = h * rng.choice((-1, 1), size=(1, order))
        want = oracles.normalize_entries(h.tolist())
        got = normalize(HadamardMatrix(order, h))
        assert list(got.entries) == want
        assert all(type(v) is int for row in got.entries for v in row)


# ---------------------------------------------------------------------------
# transformations against the oracles on random arrays
# ---------------------------------------------------------------------------

@st.composite
def arrays(draw):
    d = draw(st.sampled_from(list(range(2, 41)) + [300]))
    n = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, d - 1)] * n)
    return OrthogonalArray(tuple(draw(st.lists(row, min_size=1, max_size=12))), d)


@settings(max_examples=150, deadline=None)
@given(arrays(), st.data())
def test_transforms_equal_the_oracles(array, data):
    rows, d, r, n = list(array.rows), array.levels, array.runs, array.factors
    perm = data.draw(st.permutations(range(r)))
    assert list(permute_rows(array, perm).rows) == \
        oracles.permute_rows_rows(rows, perm)
    perm = data.draw(st.permutations(range(n)))
    assert list(permute_columns(array, perm).rows) == \
        oracles.permute_columns_rows(rows, perm)
    perms = [data.draw(st.permutations(range(d))) for _ in range(n)]
    assert list(permute_levels(array, perms).rows) == \
        oracles.permute_levels_rows(rows, perms)
    drop = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    assert list(remove_columns(array, drop).rows) == \
        oracles.remove_columns_rows(rows, drop)
    if n > 1:
        symbol = rows[data.draw(st.integers(0, r - 1))][0]
        derived = derive(array, symbol)
        assert list(derived.rows) == oracles.derive_rows(rows, symbol)
        assert derived.grid.dtype == array.grid.dtype
