"""Bipartite-graph certification and serialization of partition graphs."""

import json
import time
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import (
    AdjacencyMatrix,
    BadSubset,
    ParameterViolation,
    ParseError,
    PhasesPresent,
    adjacency,
    bush_oa,
    check_rules,
    graph_from_json,
    graph_from_state,
    graphs_identical,
    is_k_uniform_by_graphs,
    is_product_across,
    max_uniformity,
    oa_index,
    parse_ket,
    state_from_adjacency,
    state_from_oa,
    to_dot,
    to_json,
)
from kuniform import PureState, TooLarge
from kuniform.states import _from_grid

import oracles


def load_ket(fixtures_dir, name):
    return parse_ket((fixtures_dir / f"{name}.ket").read_text())


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_graph_from_bell_state(fixtures_dir):
    graph = graph_from_state(load_ket(fixtures_dir, "bell"), keep={0})
    assert sorted((a, b) for a, b, _ in graph.edges) == [("0", "1"),
                                                         ("1", "0")]
    assert graph.vertices_a == ("0", "1")
    assert graph.vertices_b == ("0", "1")
    assert graph.kept == (0,)
    assert graph.dropped == (1,)


def test_graph_from_ghz(fixtures_dir):
    graph = graph_from_state(load_ket(fixtures_dir, "ghz_n3"), keep={0})
    assert sorted((a, b) for a, b, _ in graph.edges) == [("0", "00"),
                                                         ("1", "11")]
    assert graph.vertices_b == ("00", "01", "10", "11")


def test_graph_subset_validation(fixtures_dir):
    bell = load_ket(fixtures_dir, "bell")
    with pytest.raises(BadSubset):
        graph_from_state(bell, keep={0, 1})
    with pytest.raises(BadSubset):
        graph_from_state(bell, keep=set())


# ---------------------------------------------------------------------------
# degree rules
# ---------------------------------------------------------------------------

def test_check_rules_bell(fixtures_dir):
    rules = check_rules(graph_from_state(load_ket(fixtures_dir, "bell"), {0}))
    assert rules == (True, True)
    assert rules.diagonality and rules.uniformity


def test_check_rules_w_state_fails_uniformity(fixtures_dir):
    rules = check_rules(graph_from_state(load_ket(fixtures_dir, "w_n3"), {0}))
    assert rules.diagonality
    assert not rules.uniformity


def test_check_rules_separable_state(fixtures_dir):
    graph = graph_from_state(load_ket(fixtures_dir, "separable_n3"), {0})
    rules = check_rules(graph)
    assert rules == (True, False)  # A-degrees are 4 and 0
    assert is_product_across(graph)


def test_is_product_across_entangled_cut_is_false(fixtures_dir):
    graph = graph_from_state(load_ket(fixtures_dir, "bell"), {0})
    assert not is_product_across(graph)


def test_a_degrees_equal_the_index_for_index_unity_arrays():
    arr = bush_oa(3, 2)
    st = state_from_oa(arr)
    lam = oa_index(arr, 2)
    from itertools import combinations
    for kept in combinations(range(arr.factors), 2):
        graph = graph_from_state(st, kept)
        degree = {w: 0 for w in graph.vertices_a}
        for a, _, _ in graph.edges:
            degree[a] += 1
        assert set(degree.values()) == {lam}


# ---------------------------------------------------------------------------
# graph-based certification
# ---------------------------------------------------------------------------

def test_is_k_uniform_by_graphs_matches_spectral(fixtures_dir):
    assert is_k_uniform_by_graphs(load_ket(fixtures_dir, "parity_n3"), 1)
    assert not is_k_uniform_by_graphs(load_ket(fixtures_dir, "w_n3"), 1)
    assert is_k_uniform_by_graphs(load_ket(fixtures_dir, "hadamard8_n7"), 2)


def test_is_k_uniform_by_graphs_rejects_mixed_phases(fixtures_dir):
    with pytest.raises(PhasesPresent):
        is_k_uniform_by_graphs(load_ket(fixtures_dir, "signed_n5_k2"), 2)


def test_is_k_uniform_by_graphs_k_range(fixtures_dir):
    with pytest.raises(ParameterViolation):
        is_k_uniform_by_graphs(load_ket(fixtures_dir, "bell"), 2)


def test_graphs_identical_examples(fixtures_dir):
    assert graphs_identical(load_ket(fixtures_dir, "bell"), 1)
    # certified uniform states need NOT have label-identical partition
    # graphs: the edge multiset keeps per-column word labels, and column
    # permutations relabel them even when every degree rule holds
    assert not graphs_identical(state_from_oa(bush_oa(3, 2)), 2)
    assert not graphs_identical(load_ket(fixtures_dir, "hadamard8_n7"), 2)


def test_graphs_identical_rejects_mixed_phases(fixtures_dir):
    with pytest.raises(PhasesPresent):
        graphs_identical(load_ket(fixtures_dir, "signed_n5_k2"), 2)


def common_phase_state(words, d):
    return _from_grid(np.array(sorted(words), dtype=np.uint8), d,
                      np.ones(len(words)))


@st.composite
def word_sets(draw):
    """(words, d): unions of column-permutation orbits, the same less one
    word, linear codes over Z_d, and random word sets."""
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from([2, 3, 4, 5, 7, 36]))
    word = st.tuples(*[st.integers(0, d - 1)] * n)
    kind = draw(st.sampled_from(["orbits", "orbits less one", "linear",
                                 "random"]))
    if kind == "linear":
        rows = draw(st.integers(1, 3 if d ** 2 > 64 else 4 if d > 2 else 6))
        basis = np.array(draw(st.lists(word, min_size=rows, max_size=rows)))
        coefficients = np.array(list(np.ndindex(*[d] * rows)))
        words = set(map(tuple, (coefficients @ basis % d).tolist()))
    elif kind == "random":
        words = set(draw(st.lists(word, min_size=1, max_size=40)))
    else:
        seeds = draw(st.lists(word, min_size=1, max_size=3))
        words = {w for seed in seeds for w in permutations(seed)}
        if kind == "orbits less one" and len(words) > 1:
            words.discard(draw(st.sampled_from(sorted(words))))
    return sorted(words), d


@settings(max_examples=150, deadline=None)
@given(word_sets())
def test_graphs_identical_against_every_partition(case):
    words, d = case
    state = common_phase_state(words, d)
    n = state.qudits
    for k in range(1, n):
        got = graphs_identical(state, k)
        assert type(got) is bool
        assert got == oracles.graphs_identical_by_partitions(words, k)
    for k in (0, n):
        with pytest.raises(ParameterViolation):
            graphs_identical(state, k)


def test_graphs_identical_on_a_large_symmetric_support():
    # the 16-qubit weight-8 Dicke support: one check per generator of the
    # column permutations, not one per each of the 12,870 partitions
    words = [tuple(int(c in ones) for c in range(16))
             for ones in combinations(range(16), 8)]
    state = common_phase_state(words, 2)
    start = time.perf_counter()
    assert graphs_identical(state, 8) is True
    assert time.perf_counter() - start < 1.0


@st.composite
def partitioned_word_sets(draw):
    """(words, d): random word sets, and products of a word set on some
    columns with one on the others."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 4))

    def words(length, most):
        return draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * length),
                             min_size=1, max_size=most, unique=True))

    if not draw(st.booleans()):
        return words(n, 30), d
    kept = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    order = sorted(kept) + [c for c in range(n) if c not in kept]
    product = [a + b for a in words(len(kept), 6)
               for b in words(n - len(kept), 6)]
    # column order[i] holds symbol i of a product word
    return [tuple(w[order.index(c)] for c in range(n)) for w in product], d


@settings(max_examples=100, deadline=None)
@given(partitioned_word_sets())
def test_is_product_across_against_the_product_set(case):
    words, d = case
    state = common_phase_state(words, d)
    n = state.qudits
    for k in range(1, n):
        for kept in combinations(range(n), k):
            graph = graph_from_state(state, kept)
            got = is_product_across(graph)
            assert type(got) is bool
            assert got == oracles.product_across(graph.edges)


# ---------------------------------------------------------------------------
# adjacency matrices
# ---------------------------------------------------------------------------

def test_adjacency_of_bell(fixtures_dir):
    graph = graph_from_state(load_ket(fixtures_dir, "bell"), {0})
    mat = adjacency(graph)
    assert mat.matrix == ((0, 1), (1, 0))
    assert mat.kept == (0,)


def test_state_from_adjacency_round_trip(fixtures_dir):
    checked = 0
    for path in sorted(fixtures_dir.glob("*.ket")):
        st = parse_ket(path.read_text())
        if any(abs(p - 1.0) > 1e-12 for p in st.phases):
            continue
        keep = tuple(range(max(1, st.qudits // 2)))
        mat = adjacency(graph_from_state(st, keep))
        assert state_from_adjacency(mat) == st
        checked += 1
    assert checked >= 5


def test_state_from_adjacency_validation():
    with pytest.raises(ParameterViolation):
        state_from_adjacency(AdjacencyMatrix(((0, 1),), 2, 2, (0,)))[0]
    bad_shape = AdjacencyMatrix(((0, 1, 0),), 2, 2, (0,))
    with pytest.raises(ParameterViolation):
        state_from_adjacency(bad_shape)
    bad_entry = AdjacencyMatrix(((0, 2), (1, 0)), 2, 2, (0,))
    with pytest.raises(ParameterViolation):
        state_from_adjacency(bad_entry)
    empty = AdjacencyMatrix(((0, 0), (0, 0)), 2, 2, (0,))
    with pytest.raises(ParameterViolation):
        state_from_adjacency(empty)


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def test_to_dot_bell(fixtures_dir):
    dot = to_dot(graph_from_state(load_ket(fixtures_dir, "bell"), {0}))
    assert dot.startswith("graph state {")
    assert "cluster_a" in dot and "cluster_b" in dot
    assert 'label="kept qudits {1}";' in dot
    edge_lines = [ln for ln in dot.splitlines() if " -- " in ln]
    assert sorted(edge_lines) == ['  "A_0" -- "B_1";', '  "A_1" -- "B_0";']


def test_to_dot_annotates_nontrivial_phases(fixtures_dir):
    dot = to_dot(graph_from_state(load_ket(fixtures_dir, "signed_n5_k2"),
                                  {0, 1}))
    assert 'label="-1' in dot


def test_to_json_ghz(fixtures_dir):
    doc = json.loads(to_json(graph_from_state(
        load_ket(fixtures_dir, "ghz_n3"), {0})))
    assert doc["n"] == 3 and doc["d"] == 2 and doc["k"] == 1
    assert doc["partition"] == [1]
    assert len(doc["vertices_a"]) == 2
    assert len(doc["vertices_b"]) == 4
    assert sorted(e[:2] for e in doc["edges"]) == [["0", "00"], ["1", "11"]]


def test_json_round_trip(fixtures_dir):
    for name, keep in (("bell", {0}), ("signed_n5_k2", {1, 3}),
                       ("qutrit_n4_k2", {0, 2})):
        graph = graph_from_state(load_ket(fixtures_dir, name), keep)
        back = graph_from_json(to_json(graph))
        assert back == graph


def test_graph_from_json_errors():
    with pytest.raises(ParseError):
        graph_from_json("{not json")
    with pytest.raises(ParseError):
        graph_from_json(json.dumps({"n": 2}))
    doc = {"n": 2, "d": 2, "k": 1, "partition": [1],
           "vertices_a": ["0"], "vertices_b": ["0", "1"],
           "edges": [["0", "1", [1.0, 0.0]]]}
    with pytest.raises(ParseError):
        graph_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# agreement with the spectral certifier
# ---------------------------------------------------------------------------

def test_graph_and_spectral_certifiers_agree(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.ket")):
        st = parse_ket(path.read_text())
        if st.qudits < 2 or any(abs(p - 1.0) > 1e-12 for p in st.phases):
            continue
        spectral = max_uniformity(st)
        for k in range(1, st.qudits // 2 + 1):
            assert is_k_uniform_by_graphs(st, k) == (k <= spectral)



@pytest.mark.parametrize("change", [
    {"partition": [3]},                        # qudit outside 1..n
    {"partition": [0]},
    {"partition": [1, 2]},                     # not a proper subset
    {"d": 37},                                 # beyond base-36 labels
    {"edges": [["0", "11", [1.0, 0.0]]]},      # dropped word too long
    {"edges": [["", "1", [1.0, 0.0]]]},        # kept word too short
    {"edges": [["2", "1", [1.0, 0.0]]]},       # symbol >= d
    {"vertices_b": None},
])
def test_graph_from_json_rejects_inconsistent_documents(fixtures_dir, change):
    doc = json.loads(to_json(graph_from_state(load_ket(fixtures_dir, "bell"),
                                              [0])))
    doc.update(change)
    with pytest.raises(ParseError):
        graph_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# size guard on the vertex and adjacency listings
# ---------------------------------------------------------------------------

def test_oversized_adjacency_raises_before_allocating():
    graph = graph_from_state(state_from_oa(bush_oa(8, 3)), [0, 2])
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"8\*\*9-cell adjacency"):
        adjacency(graph)
    assert time.perf_counter() - start < 1.0


def test_oversized_vertex_listing_raises():
    state = PureState(7, 36, [("0000000", 1.0)])
    one_kept = graph_from_state(state, [0])
    six_kept = graph_from_state(state, range(6))
    assert len(one_kept.vertices_a) == 36
    for listing in (lambda: one_kept.vertices_b,
                    lambda: six_kept.vertices_a,
                    lambda: check_rules(six_kept),
                    lambda: to_json(one_kept),
                    lambda: to_dot(one_kept)):
        with pytest.raises(TooLarge, match="listing 2176782336 words"):
            listing()
