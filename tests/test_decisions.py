"""The two questions of the certifiers, each decided in one place of `oa`.

`oa._strength` decides whether rows have strength k (pair census, block
scan, a proven strength or the run count) and `oa._separation` the
smallest distance between two rows of proven strength k, capped at k + 1
(the Singleton bound at index unity, else the census or the close pairs).
The graph rule reads both; the tests hold them to the oracles on every
path.
"""

import random

import numpy as np
import pytest

import kuniform.oa
from kuniform import (
    OrthogonalArray,
    bush_extended_oa,
    bush_oa,
    hadamard,
    hadamard_to_oa,
    is_k_uniform_by_graphs,
    juxtapose,
    permute_columns,
    permute_levels,
    permute_rows,
    remove_columns,
    state_from_oa,
    uniformity,
)
from kuniform.oa import _separation, _strength

from oracles import close_pairs, naive_max_strength
from test_census import on_every_path, spy_calls


def oracle_separation(rows, k):
    """The smallest distance between two rows, capped at k + 1, from the
    oracle's plain scan of all pairs."""
    return min((sum(a != b for a, b in zip(rows[i], rows[j]))
                for i, j in close_pairs(rows, k)), default=k + 1)


def shuffled(array, rng):
    """The array with seeded row, column and level permutations, which keep
    its strength and its row distances."""
    d = array.levels
    array = permute_rows(array, rng.sample(range(array.runs), array.runs))
    array = permute_columns(array, rng.sample(range(array.factors),
                                              array.factors))
    return permute_levels(array, [rng.sample(range(d), d)
                                  for _ in range(array.factors)])


def hadamard_unity_arrays(rng):
    """Column subsets of hadamard_to_oa arrays whose strength k has
    r = 2**k (index unity)."""
    found = []
    for order in (4, 8, 16):
        base = hadamard_to_oa(hadamard(order))
        for size in range(2, base.factors + 1):
            for _ in range(3):
                keep = set(rng.sample(range(base.factors), size))
                part = remove_columns(
                    base, [c for c in range(base.factors) if c not in keep])
                k = naive_max_strength(part.rows, 2)
                if part.runs == 2 ** k:
                    found.append((OrthogonalArray(part.grid, 2, k), k))
    return found


def unity_arrays():
    rng = random.Random(22)
    arrays = [(bush_oa(q, k), k) for q, k in ((2, 1), (3, 2), (4, 2),
                                              (5, 2), (3, 3), (4, 3),
                                              (5, 3), (3, 4))]
    arrays += [(bush_extended_oa(q), 3) for q in (2, 4)]
    hadamards = hadamard_unity_arrays(rng)
    assert {a.runs for a, _ in hadamards} >= {4, 8, 16}
    return [(shuffled(a, rng), k) for a, k in arrays + hadamards]


def test_separation_at_index_unity_is_the_oracle_distance():
    for array, k in unity_arrays():
        assert array.runs == array.levels ** k
        want = oracle_separation(array.rows, k)
        assert want == min(array.factors - k + 1, k + 1)
        assert on_every_path(
            lambda: _separation(array.grid, array.levels, k)) == want


def test_separation_off_index_unity_on_every_path():
    # index 2 and above: the census or the close pairs answer
    bush = bush_oa(3, 2)
    arrays = [(juxtapose([bush, bush]), 2), (bush_oa(3, 3), 2),
              (hadamard_to_oa(hadamard(8)), 2),
              (hadamard_to_oa(hadamard(12)), 2),
              (hadamard_to_oa(hadamard(16)), 1)]
    for array, k in arrays:
        assert array.runs > array.levels ** k
        assert on_every_path(
            lambda: _separation(array.grid, array.levels, k)
        ) == oracle_separation(array.rows, k)


def test_a_proven_strength_answers_with_no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a census or scan ran")

    array = bush_oa(5, 3)
    for name in ("_pair_census", "_kept_codes"):
        monkeypatch.setattr(kuniform.oa, name, refuse)
    for k in range(4):
        assert _strength(array.grid, 5, k, proven=3) == (True, None)


def test_the_close_pairs_come_before_the_run_count(monkeypatch):
    # 6 rows cannot have strength 2 over 2 levels; a caller that needs the
    # close pairs still takes the census (it pays: 6 rows of one word
    # against C(8, 2) = 28 subsets), one that needs only the strength
    # does not
    grid = np.random.default_rng(22).integers(0, 2, (6, 8), dtype=np.uint8)
    calls = spy_calls(monkeypatch, ("_pair_census", "_kept_codes"))
    holds, census = _strength(grid, 2, 2, reach=2)
    assert not holds and census is not None
    assert calls == {"_pair_census": 1, "_kept_codes": 0}
    assert _strength(grid, 2, 2) == (False, None)
    assert calls == {"_pair_census": 1, "_kept_codes": 0}


def test_the_graph_rule_reads_index_unity_with_no_close_pairs(monkeypatch):
    state = state_from_oa(bush_oa(8, 3))
    calls = spy_calls(monkeypatch, ("_pair_census", "_close_pairs"))
    assert is_k_uniform_by_graphs(state, 3)
    assert calls == {"_pair_census": 0, "_close_pairs": 0}


@pytest.mark.parametrize("q,k", [(2, 2), (3, 3), (4, 3), (4, 4)])
def test_the_graph_rule_fails_above_half_the_qudits(q, k):
    # N = q + 1 < 2k: the Singleton distance N - k + 1 is at most k
    state = state_from_oa(bush_oa(q, k))
    assert 2 * k > state.qudits
    assert not on_every_path(lambda: is_k_uniform_by_graphs(state, k))
    assert not uniformity(state, k).certified
