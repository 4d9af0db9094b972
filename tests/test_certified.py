"""Strength proven once: the rank certificate of the field constructions
against brute force, and the strength the transformations carry."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.oa
from kuniform import (
    OrthogonalArray,
    PostconditionFailed,
    bush_extended_oa,
    bush_oa,
    derive,
    extend_with_symbol,
    hadamard,
    hadamard_to_oa,
    juxtapose,
    permute_columns,
    permute_levels,
    permute_rows,
    rao_oa,
    remove_columns,
    verify_strength,
)
from kuniform.constructions import _independent_columns, _linear_oa
from kuniform.gf import field_new

import oracles
from test_grid import _bush_cases, _rao_cases

FIELDS = [2, 3, 4, 5, 7, 8, 9]

#: The naive oracle runs at about a microsecond per (subset, row) cell;
#: above this many cells an array is checked by `verify_strength` alone
#: (the full naive pass over every construction took about 48 s).
NAIVE_CELLS = 1 << 18


def _tables(q):
    _, add, mul = oracles.gf_tables(q)
    return np.array(add), np.array(mul)


def _row_space(q, generator):
    """Every xG over GF(q), x in ascending code order (digit 0 least
    significant), from the oracle's field tables."""
    add, mul = _tables(q)
    m, n = generator.shape
    x = np.arange(q ** m)[:, None] // q ** np.arange(m) % q
    cells = np.zeros((q ** m, n), dtype=np.intp)
    for i in range(m):
        cells = add[cells, mul[x[:, i, None], generator[i]]]
    return cells


@st.composite
def generators(draw):
    """(q, G): a random m x N matrix over GF(q) in which some columns are
    overwritten by s * G[:, a] + t * G[:, b] -- a zero column, a multiple of
    one column, or a combination of two."""
    q = draw(st.sampled_from(FIELDS))
    add, mul = _tables(q)
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 6))
    entries = st.integers(0, q - 1)
    g = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)))
    for _ in range(draw(st.integers(0, 2))):
        target, a, b = (draw(st.integers(0, n - 1)) for _ in range(3))
        s, t = draw(entries), draw(entries)
        g[:, target] = add[mul[s, g[:, a]], mul[t, g[:, b]]]
    return q, g


@settings(max_examples=300, deadline=None)
@given(generators())
def test_rank_certificate_equals_brute_force(case):
    q, g = case
    m, n = g.shape
    array = OrthogonalArray(_row_space(q, g), q)
    for k in range(1, m + 2):
        assert _independent_columns(field_new(q), g, k) == \
            verify_strength(array, k), k


def test_rank_certificate_over_many_blocks(monkeypatch):
    # one subset per block: a dependent subset in a late block is found
    monkeypatch.setattr(kuniform.oa, "_BLOCK_CELLS", 1)
    f = field_new(4)
    good = bush_oa(4, 3).grid[4 ** np.arange(3)]
    assert _independent_columns(f, good, 3)
    bad = good.copy()
    bad[:, -1] = f.add_table[f.mul_table[3, bad[:, -2]], bad[:, -3]]
    assert not _independent_columns(f, bad, 3)
    assert not verify_strength(OrthogonalArray(_row_space(4, bad), 4), 3)


def test_a_failed_certificate_raises():
    f = field_new(3)
    dependent = np.array([[1, 0, 2], [0, 1, 0]])
    with pytest.raises(PostconditionFailed):
        _linear_oa(f, _row_space(3, dependent), 2, 2)
    independent = np.array([[1, 0, 1], [0, 1, 1]])
    assert _linear_oa(f, _row_space(3, independent), 2, 2).strength == 2


CONSTRUCTIONS = ([(bush_oa, (q, k), k) for q, k in _bush_cases()]
                 + [(rao_oa, (q, n), 2) for q, n in _rao_cases()]
                 + [(bush_extended_oa, (q,), 3) for q in (2, 4, 8, 16)])
ORACLE_ROWS = {bush_oa: oracles.bush_rows, rao_oa: oracles.rao_rows,
               bush_extended_oa: oracles.bush_extended_rows}


@pytest.mark.parametrize(
    "construct,params,strength", CONSTRUCTIONS,
    ids=[f"{c.__name__}{p}" for c, p, _ in CONSTRUCTIONS])
def test_constructions_keep_their_grid_and_prove_their_strength(
        monkeypatch, construct, params, strength):
    calls = []
    monkeypatch.setattr(kuniform.oa, "verify_strength",
                        lambda array, k: calls.append(k))
    a = construct(*params)
    assert calls == []
    monkeypatch.undo()
    want = np.array(ORACLE_ROWS[construct](*params), dtype=np.uint8)
    assert a.grid.dtype == want.dtype and a.grid.shape == want.shape
    assert a.grid.tobytes() == want.tobytes()
    assert a.strength == strength
    assert verify_strength(a, strength)
    if comb(a.factors, strength) * a.runs <= NAIVE_CELLS:
        assert oracles.naive_strength_ok(a.rows, a.levels, strength)


@pytest.mark.parametrize("order", [4, 8, 12, 20, 24])
def test_hadamard_arrays_prove_their_strength(order):
    a = hadamard_to_oa(hadamard(order))
    assert a.strength == 2 and not a.grid.flags.writeable
    assert a == OrthogonalArray(a.grid, 2, 2)
    assert oracles.naive_strength_ok(a.rows, 2, 2)


SMALL = [(bush_oa, (3, 2)), (bush_oa, (4, 3)), (bush_oa, (5, 2)),
         (bush_oa, (2, 3)), (rao_oa, (2, 3)), (rao_oa, (3, 2)),
         (rao_oa, (4, 2)), (bush_extended_oa, (4,))]


@pytest.mark.parametrize("construct,params", SMALL)
@pytest.mark.parametrize("seed", [1, 2])
def test_transforms_carry_a_proven_strength(construct, params, seed):
    rng = np.random.default_rng([seed, *params])
    a = construct(*params)
    r, n, q, k = a.runs, a.factors, a.levels, a.strength
    drop = rng.choice(n, int(rng.integers(n)), replace=False).tolist()

    def relabeled(b):
        return permute_levels(b, [rng.permutation(q) for _ in range(n)])

    results = {
        "rows": (permute_rows(a, rng.permutation(r)), k),
        "columns": (permute_columns(a, rng.permutation(n)), k),
        "levels": (relabeled(a), k),
        "derive": (derive(a, int(rng.integers(q))), k - 1),
        "remove": (remove_columns(a, drop), min(k, n - len(drop))),
        "juxtapose": (juxtapose([a, relabeled(a)]), k),
        "extend": (extend_with_symbol([relabeled(a) for _ in range(q)]), k),
        "chain": (derive(permute_rows(relabeled(a), rng.permutation(r)),
                         int(rng.integers(q))), k - 1),
    }
    for name, (b, strength) in results.items():
        assert b.strength == strength, name
        assert not b.grid.flags.writeable, name
        # the public constructor, which scans, builds the same array
        assert b == OrthogonalArray(b.grid, q, strength), name
        assert oracles.naive_strength_ok(b.rows, q, strength), name
