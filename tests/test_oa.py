"""OrthogonalArray core: strength, bounds, transformations."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import (
    BadSubset,
    EmptyResult,
    IrredundancyWitness,
    NotAPermutation,
    NotAnOAAtStrength,
    OrthogonalArray,
    ParameterViolation,
    ShapeMismatch,
    SymbolOutOfRange,
    WrongCount,
    bush_extended_oa,
    cecc_singleton_holds,
    derive,
    extend_with_symbol,
    gv_holds,
    is_irredundant,
    is_tight,
    juxtapose,
    max_strength,
    oa_index,
    parse_oa_file,
    permute_columns,
    permute_levels,
    permute_rows,
    qecc_singleton_holds,
    rao_min_runs,
    rao_report,
    remove_columns,
    singleton_max_k,
    verify_strength,
)

from oracles import (
    irredundancy_witness,
    naive_max_strength,
    naive_strength_ok,
    rao_closed_form_d2,
)


def fx(fixtures_dir, name):
    return parse_oa_file((fixtures_dir / name).read_text())


PAIR_ARRAY = OrthogonalArray(((0, 1), (1, 0)), 2)
PARITY3 = OrthogonalArray(((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), 2)


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_rejects_bad_symbols():
    with pytest.raises(SymbolOutOfRange):
        OrthogonalArray(((0, 2),), 2)


def test_rejects_ragged_rows():
    with pytest.raises(ShapeMismatch):
        OrthogonalArray(((0, 0), (1,)), 2)


def test_rejects_levels_below_two():
    with pytest.raises(ParameterViolation):
        OrthogonalArray(((0,),), 1)


def test_rejects_false_declared_strength():
    with pytest.raises(NotAnOAAtStrength):
        OrthogonalArray(((0, 0), (0, 1)), 2, strength=1)


def test_rejects_non_integer_index():
    # 3 rows cannot have strength 1 over 2 levels (3 not divisible by 2)
    with pytest.raises(NotAnOAAtStrength):
        OrthogonalArray(((0, 0), (0, 1), (1, 0)), 2, strength=1)


def test_declared_strength_and_index():
    a = OrthogonalArray(PARITY3.rows, 2, strength=2)
    assert a.strength == 2
    assert a.index == 1
    assert PAIR_ARRAY.column(0) == (0, 1)


# ---------------------------------------------------------------------------
# strength
# ---------------------------------------------------------------------------

def test_verify_strength_examples():
    assert verify_strength(PAIR_ARRAY, 1)
    assert verify_strength(PARITY3, 2)
    assert not verify_strength(OrthogonalArray(((0, 0), (0, 1)), 2), 1)


def test_verify_strength_k0_is_true():
    assert verify_strength(OrthogonalArray(((0, 0),), 2), 0)


def test_verify_strength_out_of_range():
    with pytest.raises(ParameterViolation):
        verify_strength(PAIR_ARRAY, 3)
    with pytest.raises(ParameterViolation):
        verify_strength(PAIR_ARRAY, -1)


def test_max_strength_examples(fixtures_dir):
    assert max_strength(fx(fixtures_dir, "oa_8_4_2_3.oa")) == 3
    assert max_strength(fx(fixtures_dir, "oa_8_5_2_2.oa")) == 2
    assert max_strength(OrthogonalArray(((0, 0, 0),), 2)) == 0
    assert max_strength(PARITY3) == 2


def test_max_strength_monotone(fixtures_dir):
    a = fx(fixtures_dir, "oa_8_4_2_3.oa")
    for k in range(max_strength(a) + 1):
        assert verify_strength(a, k)


def test_oa_index_examples(fixtures_dir):
    assert oa_index(fx(fixtures_dir, "oa_8_5_2_2.oa"), 2) == 2
    assert oa_index(PARITY3, 2) == 1
    assert oa_index(PAIR_ARRAY, 1) == 1
    with pytest.raises(NotAnOAAtStrength):
        oa_index(fx(fixtures_dir, "oa_8_5_2_2.oa"), 3)


def test_strength_agrees_with_naive_oracle_on_random_arrays():
    rng = random.Random(2024)
    for _ in range(120):
        r = rng.randint(1, 8)
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(n))
                     for _ in range(r))
        a = OrthogonalArray(rows, 2)
        for k in range(n + 1):
            assert verify_strength(a, k) == naive_strength_ok(rows, 2, k)
        assert max_strength(a) == naive_max_strength(rows, 2)


# ---------------------------------------------------------------------------
# irredundancy
# ---------------------------------------------------------------------------

def test_irredundant_examples(fixtures_dir):
    assert is_irredundant(PARITY3, 1).ok
    res = is_irredundant(fx(fixtures_dir, "oa_8_5_2_2.oa"), 2)
    assert not res.ok
    assert res.witness.removed_columns == (1, 3)
    assert res.witness.row_pair == (0, 2)


def test_irredundancy_result_is_truthy_boolean(fixtures_dir):
    assert bool(is_irredundant(PARITY3, 1))
    assert not bool(is_irredundant(fx(fixtures_dir, "oa_8_5_2_2.oa"), 2))


def test_witness_rows_really_collide(fixtures_dir):
    a = fx(fixtures_dir, "oa_8_5_2_2.oa")
    w = is_irredundant(a, 2).witness
    kept = [j for j in range(a.factors) if j not in w.removed_columns]
    i, j = w.row_pair
    assert [a.rows[i][c] for c in kept] == [a.rows[j][c] for c in kept]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6), st.data())
def test_irredundancy_witness_matches_reference(d, n, data):
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(0, d - 1)] * n), min_size=1, max_size=10))
    k = data.draw(st.integers(0, n))
    result = is_irredundant(OrthogonalArray(tuple(rows), d), k)
    want = irredundancy_witness(rows, k)
    assert result.ok is (want is None)
    assert result.witness == (None if want is None else IrredundancyWitness(*want))


def test_irredundancy_beyond_one_byte_levels():
    rows = ((299, 0, 7), (44, 1, 7), (299, 1, 7), (44, 1, 999))
    array = OrthogonalArray(rows, 1000)
    for k in range(4):
        want = irredundancy_witness(rows, k)
        got = is_irredundant(array, k).witness
        assert got == (None if want is None else IrredundancyWitness(*want))
    assert is_irredundant(array, 1).witness == ((0,), (1, 2))


def test_index_unity_arrays_with_small_strength_are_irredundant(fixtures_dir):
    # the guarantee needs index 1 at the array's own strength k and k <= N/2
    assert is_irredundant(PAIR_ARRAY, 1).ok
    b = fx(fixtures_dir, "oa_4_3_2_2.oa")
    assert is_irredundant(b, 1).ok  # viewed at strength 1, index 2... still holds
    from kuniform import bush_extended_oa, bush_oa
    for a in (bush_oa(3, 2), bush_oa(4, 2), bush_extended_oa(4)):
        k = a.strength
        assert oa_index(a, k) == 1 and 2 * k <= a.factors
        assert is_irredundant(a, k).ok


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_rao_min_runs_examples():
    assert rao_min_runs(4, 2, 2) == 5
    assert rao_min_runs(5, 3, 1) == 3
    assert rao_min_runs(10, 8, 3) == 512
    for n in range(2, 30):
        assert rao_min_runs(n, 2, 1) == 2
        assert rao_min_runs(n, 2, 2) == n + 1
        if n >= 3:
            assert rao_min_runs(n, 2, 3) == 2 * n


def test_rao_min_runs_matches_closed_forms_for_qubits():
    for n in range(5, 40):
        for k in range(1, 6):
            assert rao_min_runs(n, 2, k) == rao_closed_form_d2(n, k)


def test_rao_min_runs_is_monotone_in_every_parameter():
    for d in (2, 3):
        for n in range(2, 10):
            for k in range(1, n):
                assert rao_min_runs(n + 1, d, k) >= rao_min_runs(n, d, k)
                assert rao_min_runs(n, d + 1, k) >= rao_min_runs(n, d, k)
                assert rao_min_runs(n, d, k + 1) >= rao_min_runs(n, d, k)


def test_is_tight_examples(fixtures_dir):
    assert is_tight(fx(fixtures_dir, "oa_2_2_2_1.oa"))
    assert is_tight(fx(fixtures_dir, "oa_4_3_2_2.oa"))
    assert is_tight(fx(fixtures_dir, "oa_8_4_2_3.oa"))
    assert not is_tight(fx(fixtures_dir, "oa_8_5_2_2.oa"))
    rows = tuple(itertools.product(range(3), repeat=2))
    nine = OrthogonalArray(tuple((a, b, (a + b) % 3, (a + 2 * b) % 3)
                                 for a, b in rows), 3)
    assert is_tight(nine)  # OA(9,4,3,2): bound is 1 + 4*2 = 9
    assert is_tight(bush_extended_oa(8))  # 512 = 1 + 10*7 + 9*7**2


def test_rao_report_fields(fixtures_dir):
    rep = rao_report(5, 2, 2, fx(fixtures_dir, "oa_8_5_2_2.oa"))
    assert rep.min_runs == 6
    assert rep.tight is False
    assert dict(rep.parameters) == {"n": 5, "d": 2, "k": 2}
    assert rao_report(5, 2, 2).tight is None


def test_singleton_max_k():
    assert singleton_max_k(4) == 2
    assert singleton_max_k(5) == 2
    assert singleton_max_k(2) == 1


def test_gv_holds():
    assert [n for n in range(3, 20) if gv_holds(n, 3)][0] == 14
    assert gv_holds(2, 0)
    assert not gv_holds(6, 3)


def test_qecc_singleton():
    assert qecc_singleton_holds(5, 1, 3)
    assert qecc_singleton_holds(4, 1, 3)  # borderline equality
    assert qecc_singleton_holds(2, 1, 1)
    assert not qecc_singleton_holds(4, 2, 3)


def test_cecc_singleton():
    assert cecc_singleton_holds(4, 3, 2, 2) == (True, True)  # 4 == 2**2, MDS
    assert cecc_singleton_holds(1, 1, 1, 2) == (True, False)
    assert cecc_singleton_holds(5, 3, 2, 2) == (False, False)
    assert cecc_singleton_holds(3, 1, 3, 2) == (False, False)  # exponent < 0


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def test_remove_columns_examples(fixtures_dir):
    a = fx(fixtures_dir, "oa_8_4_2_3.oa")
    assert max_strength(remove_columns(a, [0])) == 3
    b = remove_columns(fx(fixtures_dir, "oa_4_3_2_2.oa"), [0])
    assert sorted(b.rows) == sorted(itertools.product(range(2), repeat=2)) * 1
    assert max_strength(b) == 2
    identical = remove_columns(a, [])
    assert identical.rows == a.rows


def test_remove_columns_errors():
    with pytest.raises(BadSubset):
        remove_columns(PARITY3, [3])
    with pytest.raises(EmptyResult):
        remove_columns(PARITY3, [0, 1, 2])


def test_remove_columns_strength_floor(fixtures_dir):
    for name in ("oa_8_4_2_3.oa", "oa_4_3_2_2.oa", "oa_8_5_2_2.oa"):
        a = fx(fixtures_dir, name)
        full = max_strength(a)
        for drop in range(1, a.factors):
            got = max_strength(remove_columns(a, list(range(drop))))
            assert got >= min(a.factors - drop, full)


def test_derive_examples(fixtures_dir):
    a = fx(fixtures_dir, "oa_8_4_2_3.oa")
    d0 = derive(a, 0)
    assert sorted(d0.rows) == sorted(fx(fixtures_dir, "oa_4_3_2_2.oa").rows)
    assert d0.strength == 2
    assert derive(PAIR_ARRAY, 0).rows == ((1,),)
    d1 = derive(fx(fixtures_dir, "oa_4_3_2_2.oa"), 1)
    assert d1.runs == 2
    assert max_strength(d1) == 1


def test_derive_errors():
    with pytest.raises(SymbolOutOfRange):
        derive(PARITY3, 2)
    with pytest.raises(EmptyResult):
        derive(OrthogonalArray(((0,), (1,)), 2, strength=1), 0)


def test_juxtapose(fixtures_dir):
    a = fx(fixtures_dir, "oa_4_3_2_2.oa")
    assert juxtapose([a]).rows == a.rows
    sub_a = OrthogonalArray(((0, 0, 0, 0), (1, 0, 1, 0),
                             (0, 1, 0, 1), (1, 1, 1, 1)), 2)
    sub_b = OrthogonalArray(((0, 0, 1, 1), (1, 0, 0, 1),
                             (0, 1, 1, 0), (1, 1, 0, 0)), 2)
    stacked = juxtapose([sub_a, sub_b])
    assert stacked.runs == 8
    assert stacked.strength >= 1
    assert max_strength(stacked) == 3
    with pytest.raises(ShapeMismatch):
        juxtapose([a, PAIR_ARRAY])


def test_extend_with_symbol():
    comp = OrthogonalArray(((0, 0), (1, 1)), 2)
    out = extend_with_symbol([PAIR_ARRAY, comp])
    assert out.runs == 4 and out.factors == 3
    assert verify_strength(out, 2)
    with pytest.raises(WrongCount):
        extend_with_symbol([PAIR_ARRAY])
    with pytest.raises(ShapeMismatch):
        extend_with_symbol([PAIR_ARRAY, OrthogonalArray(((0, 0, 0), (1, 1, 1)), 2)])


def test_permutations_preserve_strength(fixtures_dir):
    a = fx(fixtures_dir, "oa_4_3_2_2.oa")
    assert permute_rows(a, [0, 1, 2, 3]).rows == a.rows
    swapped = permute_rows(PAIR_ARRAY, [1, 0])
    assert sorted(swapped.rows) == sorted(PAIR_ARRAY.rows)
    flipped = permute_levels(a, [[1, 0], [0, 1], [0, 1]])
    assert max_strength(flipped) == 2
    rotated = permute_columns(a, [2, 0, 1])
    assert max_strength(rotated) == 2
    with pytest.raises(NotAPermutation):
        permute_rows(a, [0, 0, 1, 2])
    with pytest.raises(NotAPermutation):
        permute_levels(a, [[1, 1], [0, 1], [0, 1]])
    with pytest.raises(NotAPermutation):
        permute_columns(a, [0, 1])


# ---------------------------------------------------------------------------
# permutation specs: integers only; level maps checked as one table
# ---------------------------------------------------------------------------

def test_permutation_specs_must_hold_integers():
    a = OrthogonalArray(((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), 2)
    for bad in ([1.5, 0.2], ["1", "0"], [True, False], [True, 0],
                np.array([1.0, 0.0]), np.array([True, False])):
        with pytest.raises(NotAPermutation, match=r"column 0\) spec"):
            permute_levels(a, [bad] * 3)
        with pytest.raises(NotAPermutation, match=r"column 2\) spec"):
            permute_levels(a, [[0, 1], [1, 0], bad])
    for bad in ([2.7, 0.1, 1.9], ["2", "0", "1"], [True, False, 2],
                np.array([2.0, 0.0, 1.0])):
        with pytest.raises(NotAPermutation, match="column spec"):
            permute_columns(a, bad)
    with pytest.raises(NotAPermutation, match="row spec"):
        permute_rows(a, [3.0, 2, 1, 0])
    rng = np.random.default_rng(5)
    for spec in (rng.permutation(3), np.array([2, 0, 1], dtype=np.uint8),
                 (2, 0, 1), range(3), [np.int64(2), 0, 1]):
        assert permute_columns(a, spec).grid.shape == (4, 3)
    assert permute_levels(a, [np.array([1, 0], dtype=np.uint8),
                              [1, 0], np.array([1, 0])]) == \
        permute_levels(a, [[1, 0]] * 3)


def column_by_column(array, spec):
    """`permute_levels` checking one column at a time, as it did before the
    table check, with the integer rule."""
    n, d = array.factors, array.levels
    if len(spec) != n:
        raise NotAPermutation(
            f"need one level permutation per column ({n}), got {len(spec)}")
    table = []
    for j, p in enumerate(spec):
        if not all(isinstance(v, (int, np.integer))
                   and not isinstance(v, bool) for v in p):
            raise NotAPermutation(f"level (column {j}) spec holds a "
                                  f"non-integer")
        perm = np.asarray(p, dtype=np.intp)
        if perm.shape != (d,) or \
                not np.array_equal(np.sort(perm), np.arange(d)):
            raise NotAPermutation(f"level (column {j}) spec "
                                  f"{tuple(perm.tolist())} is not a "
                                  f"permutation of 0..{d - 1}")
        table.append(perm)
    return [tuple(int(table[j][v]) for j, v in enumerate(row))
            for row in array.rows]


@st.composite
def level_specs(draw):
    """(array, spec): level maps that are permutations, or with a column
    that is ragged, repeats a level, leaves the range or holds a
    non-integer, or too few or too many columns."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    array = OrthogonalArray(draw(st.lists(
        st.tuples(*[st.integers(0, d - 1)] * n), min_size=1, max_size=6)), d)
    spec = [list(draw(st.permutations(range(d)))) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(
            ["short", "long", "repeat", "range", "float", "bool", "str",
             "array", "columns"]))
        p = list(draw(st.permutations(range(d))))
        if fault == "short":
            p = p[:-1]
        elif fault == "long":
            p = p + [d]
        elif fault == "repeat":
            p[0] = p[1]
        elif fault == "range":
            p[0] = draw(st.sampled_from([-1, d]))
        elif fault == "float":
            p = [float(v) for v in p]
        elif fault == "bool":
            p[0] = bool(p[0] % 2)
        elif fault == "str":
            p = [str(v) for v in p]
        elif fault == "array":
            p = np.array(p)
        else:
            spec = spec[:-1] if draw(st.booleans()) else spec + [spec[0]]
            break
        spec[j] = p
    return array, spec


@settings(max_examples=400, deadline=None)
@given(level_specs())
def test_level_maps_match_the_column_by_column_check(array_spec):
    array, spec = array_spec
    try:
        expected = column_by_column(array, spec)
    except NotAPermutation as exc:
        with pytest.raises(NotAPermutation) as raised:
            permute_levels(array, spec)
        if "non-integer" in str(exc):
            # the same column, named as numpy reads its entries
            assert str(raised.value).startswith(str(exc).split(" spec")[0])
        else:
            assert str(raised.value) == str(exc)
    else:
        assert list(permute_levels(array, spec).rows) == expected
