"""Pure states, partial traces, and uniformity certification."""

import cmath
import itertools
import time
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.states
from kuniform import (
    BadSubset,
    DensityMatrix,
    DuplicateRows,
    KuniformError,
    LengthMismatch,
    OrthogonalArray,
    ParameterViolation,
    PhaseLengthMismatch,
    PureState,
    ShapeMismatch,
    TooLarge,
    bush_oa,
    digits_to_word,
    is_maximally_mixed,
    layered_state,
    max_uniformity,
    orbit_state,
    parse_ket,
    parse_oa_file,
    purity,
    reduce,
    reduction_rank,
    state_from_oa,
    uniformity,
    is_k_uniform_by_graphs,
    word_to_digits,
)

from oracles import dense_reduced_density, eigvalsh


def load_ket(fixtures_dir, name):
    return parse_ket((fixtures_dir / f"{name}.ket").read_text())


def load_oa(fixtures_dir, name):
    return parse_oa_file((fixtures_dir / f"{name}.oa").read_text())


# ---------------------------------------------------------------------------
# construction from arrays
# ---------------------------------------------------------------------------

def test_state_from_oa_matches_ket_fixtures(fixtures_dir):
    pairs = [("oa_2_2_2_1", "bell"), ("oa_4_3_2_2", "parity_n3"),
             ("oa_8_4_2_3", "parity_n4")]
    for oa_name, ket_name in pairs:
        assert state_from_oa(load_oa(fixtures_dir, oa_name)) == load_ket(
            fixtures_dir, ket_name)


def test_state_from_oa_with_signs(fixtures_dir):
    arr = load_oa(fixtures_dir, "oa_8_5_2_2_signfix")
    want = load_ket(fixtures_dir, "signfix_n5_solved")
    want_phase = dict(want.terms)
    signs = [want_phase[digits_to_word(row)] for row in arr.rows]
    assert state_from_oa(arr, phases=signs) == want


def test_state_from_oa_errors():
    arr = OrthogonalArray(rows=((0, 1), (1, 0)), levels=2, strength=1)
    with pytest.raises(PhaseLengthMismatch):
        state_from_oa(arr, phases=[1.0])
    dup = OrthogonalArray(rows=((0, 0), (0, 0), (1, 1), (1, 1)),
                          levels=2, strength=1)
    with pytest.raises(DuplicateRows):
        state_from_oa(dup)


# ---------------------------------------------------------------------------
# PureState invariants
# ---------------------------------------------------------------------------

def test_pure_state_sorts_terms_canonically():
    a = PureState(2, 2, (("10", 1.0), ("01", -1.0)))
    b = PureState(2, 2, (("01", -1.0), ("10", 1.0)))
    assert a == b
    assert a.words == ("01", "10")
    assert a.phases == (-1.0, 1.0)


def test_pure_state_validation():
    with pytest.raises(ShapeMismatch):
        PureState(2, 2, (("011", 1.0),))
    with pytest.raises(ParameterViolation):
        PureState(2, 2, (("02", 1.0),))
    with pytest.raises(DuplicateRows):
        PureState(2, 2, (("01", 1.0), ("01", -1.0)))
    with pytest.raises(ParameterViolation):
        PureState(2, 2, ())
    with pytest.raises(ParameterViolation):
        PureState(2, 2, (("01", 0.5),))  # phase must be unit modulus
    with pytest.raises(ParameterViolation):
        PureState(0, 2, (("", 1.0),))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_reduce_bell_single_site_is_maximally_mixed(fixtures_dir):
    rho = reduce(load_ket(fixtures_dir, "bell"), keep={0})
    assert np.allclose(rho.data, np.eye(2) / 2)
    assert rho.kept == (0,)
    assert rho.dimension == 2


def test_reduce_signfix_input_known_failing_pair(fixtures_dir):
    rho = reduce(load_ket(fixtures_dir, "signfix_n5_input"), keep={2, 3})
    want = np.array([[0.25, 0, 0, 0.25],
                     [0, 0.25, 0.25, 0],
                     [0, 0.25, 0.25, 0],
                     [0.25, 0, 0, 0.25]])
    assert np.allclose(rho.data, want, atol=1e-12)
    ok, deviation = is_maximally_mixed(rho)
    assert not ok
    assert deviation == pytest.approx(0.25, abs=1e-12)


def test_reduce_trace_is_one_and_hermitian(fixtures_dir):
    for name in ("ghz_n3", "signed_n5_k2", "qutrit_n4_k2", "w_n3"):
        st = load_ket(fixtures_dir, name)
        for size in (1, 2):
            for keep in itertools.combinations(range(st.qudits), size):
                rho = reduce(st, keep=set(keep))
                assert np.trace(rho.data) == pytest.approx(1.0, abs=1e-12)
                assert np.allclose(rho.data, rho.data.conj().T)


def test_reduce_matches_dense_oracle(fixtures_dir):
    cases = [("signed_n5_k2", {0, 2}), ("qutrit_n4_k2", {1, 3}),
             ("ghz_n3", {0, 1}), ("fivelevel_n6_k2", {2, 4}),
             ("signed_n7_almost_k3", {0, 3, 5})]
    for name, keep in cases:
        st = load_ket(fixtures_dir, name)
        got = reduce(st, keep=keep)
        want = dense_reduced_density(st.terms, st.qudits, st.levels, keep)
        assert np.allclose(got.data, want, atol=1e-12)


def test_reduce_bad_subsets(fixtures_dir):
    st = load_ket(fixtures_dir, "bell")
    with pytest.raises(BadSubset):
        reduce(st, keep=set())
    with pytest.raises(BadSubset):
        reduce(st, keep={0, 1})  # proper subset required
    with pytest.raises(BadSubset):
        reduce(st, keep={5})
    with pytest.raises(BadSubset):
        reduce(st, keep={-1})
    with pytest.raises(BadSubset):
        reduce(st, keep=[0, 0])


def test_density_matrix_invariants():
    with pytest.raises(ShapeMismatch):
        DensityMatrix(np.eye(3) / 3, kept=(0,), levels=2)
    with pytest.raises(ParameterViolation):
        DensityMatrix(np.array([[0.5, 1j], [2j, 0.5]]), kept=(0,), levels=2)
    with pytest.raises(ParameterViolation):
        DensityMatrix(np.eye(2), kept=(0,), levels=2)  # trace 2


def test_is_maximally_mixed_on_identity():
    rho = DensityMatrix(np.eye(4) / 4, kept=(0, 1), levels=2)
    ok, dev = is_maximally_mixed(rho)
    assert ok and dev == 0.0
    with pytest.raises(ParameterViolation):
        is_maximally_mixed(rho, tol=0.0)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_uniformity_certifies_known_states(fixtures_dir):
    for name, k in (("bell", 1), ("ghz_n3", 1), ("signed_n5_k2", 2),
                    ("signed_n6_k3", 3), ("qutrit_n4_k2", 2),
                    ("ququart_n5_k2", 2), ("hadamard8_n7", 2)):
        report = uniformity(load_ket(fixtures_dir, name), k)
        assert report.certified
        assert report.strength == k
        assert all(s.maximally_mixed for s in report.subsets)
        assert max(s.deviation for s in report.subsets) <= 1e-9


def test_uniformity_failure_lists_eigenvalues(fixtures_dir):
    report = uniformity(load_ket(fixtures_dir, "signfix_n5_input"), 2)
    assert not report.certified
    failing = [s for s in report.subsets if not s.maximally_mixed]
    assert sorted(s.kept_labels for s in failing) == [(2, 5), (3, 4)]
    for s in failing:
        assert s.eigenvalues is not None
        assert s.deviation == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(sorted(s.eigenvalues), [0, 0, 0.5, 0.5], atol=1e-9)
    for s in report.subsets:
        if s.maximally_mixed:
            assert s.eigenvalues is None
    assert len(report.subsets) == 10


def test_uniformity_k_range(fixtures_dir):
    st = load_ket(fixtures_dir, "bell")
    with pytest.raises(ParameterViolation):
        uniformity(st, 0)
    with pytest.raises(ParameterViolation):
        uniformity(st, 2)


def test_almost_three_uniform_state_failing_triples(fixtures_dir):
    report = uniformity(load_ket(fixtures_dir, "signed_n7_almost_k3"), 3)
    failing = [s for s in report.subsets if not s.maximally_mixed]
    assert sorted(s.kept_labels for s in failing) == [
        (1, 2, 3), (1, 4, 7), (1, 5, 6)]
    assert len(report.subsets) == 35


def test_max_uniformity_values(fixtures_dir):
    for name, k in (("ghz_n3", 1), ("w_n3", 0), ("product_n6", 0),
                    ("signed_n5_k2", 2), ("signed_n6_k3", 3),
                    ("layered_n5", 1), ("separable_n3", 0)):
        assert max_uniformity(load_ket(fixtures_dir, name)) == k


def test_max_uniformity_never_exceeds_half_the_sites(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.ket")):
        st = parse_ket(path.read_text())
        assert max_uniformity(st) <= st.qudits // 2


# ---------------------------------------------------------------------------
# local-orbit states
# ---------------------------------------------------------------------------

def test_orbit_state_zero_angles_is_identity(fixtures_dir):
    st = load_ket(fixtures_dir, "signed_n5_k2")
    out = orbit_state(st, [0.0] * (st.term_count - 1))
    assert out.words == st.words
    assert np.allclose(out.phases, st.phases)


def test_orbit_state_rotates_every_term_but_the_first(fixtures_dir):
    bell = load_ket(fixtures_dir, "bell")
    out = orbit_state(bell, [np.pi / 2])
    assert out.phases[0] == bell.phases[0]
    assert out.phases[1] == pytest.approx(1j, abs=1e-12)


def test_orbit_state_preserves_uniformity(fixtures_dir):
    st = load_ket(fixtures_dir, "hadamard8_n7")
    rng = np.random.default_rng(7)
    for _ in range(5):
        angles = rng.uniform(-np.pi, np.pi, size=st.term_count - 1)
        assert uniformity(orbit_state(st, angles), 2).certified


def test_orbit_state_length_mismatch(fixtures_dir):
    with pytest.raises(LengthMismatch):
        orbit_state(load_ket(fixtures_dir, "bell"), [0.1, 0.2])


# ---------------------------------------------------------------------------
# layered composition
# ---------------------------------------------------------------------------

def test_layered_state_reproduces_five_site_example(fixtures_dir):
    a = load_ket(fixtures_dir, "sub_n4_a")
    b = load_ket(fixtures_dir, "sub_n4_b")
    assert layered_state([a, b]) == load_ket(fixtures_dir, "layered_n5")


def test_layered_state_single_layer_prefixes_zero(fixtures_dir):
    bell = load_ket(fixtures_dir, "bell")
    out = layered_state([bell])
    assert out.qudits == 3
    assert out.words == ("001", "010")


def test_layered_state_duplicate_layers_make_a_product(fixtures_dir):
    phi5 = load_ket(fixtures_dir, "signed_n5_k2")
    assert layered_state([phi5, phi5]) == load_ket(fixtures_dir, "product_n6")


def test_layered_state_shape_checks(fixtures_dir):
    bell = load_ket(fixtures_dir, "bell")
    ghz = load_ket(fixtures_dir, "ghz_n3")
    with pytest.raises(ShapeMismatch):
        layered_state([bell, ghz])
    with pytest.raises(ShapeMismatch):
        layered_state([])
    with pytest.raises(ShapeMismatch):
        layered_state([bell, bell, bell])  # needs 3 distinct prefix symbols


# ---------------------------------------------------------------------------
# numeric helpers
# ---------------------------------------------------------------------------

def test_purity_values(fixtures_dir):
    assert purity(DensityMatrix(np.eye(4) / 4, (0, 1), 2)) == pytest.approx(
        0.25, abs=1e-12)
    proj = np.zeros((4, 4))
    proj[0, 0] = 1.0
    assert purity(DensityMatrix(proj, (0, 1), 2)) == pytest.approx(
        1.0, abs=1e-12)
    rho = reduce(load_ket(fixtures_dir, "signfix_n5_input"), keep={2, 3})
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)


def test_reduction_rank(fixtures_dir):
    assert reduction_rank(DensityMatrix(np.eye(4) / 4, (0, 1), 2)) == 4
    assert reduction_rank(reduce(load_ket(fixtures_dir, "bell"), {0})) == 2
    rho = reduce(load_ket(fixtures_dir, "signfix_n5_input"), keep={2, 3})
    assert reduction_rank(rho) == 2


def test_word_digit_round_trip():
    assert digits_to_word((0, 1, 10, 35)) == "01az"
    assert word_to_digits("01az") == (0, 1, 10, 35)
    for digits in ((0,), (1, 0, 2), tuple(range(36))):
        assert word_to_digits(digits_to_word(digits)) == digits


def test_permutation_symmetric_states_are_at_most_one_uniform(fixtures_dir):
    # if the multiset of terms is invariant under every site permutation the
    # state cannot be 2-uniform on >= 4 sites (its reductions collapse)
    checked = 0
    for path in sorted(fixtures_dir.glob("*.ket")):
        st = parse_ket(path.read_text())
        if st.qudits < 4 or st.term_count > 64:
            continue
        terms = set(st.terms)

        def permuted(perm):
            return {("".join(w[i] for i in perm), p) for w, p in terms}

        symmetric = all(
            permuted(perm) == terms
            for perm in itertools.permutations(range(st.qudits)))
        if symmetric:
            checked += 1
            assert max_uniformity(st) <= 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# the sparse certifier against the dense oracle
# ---------------------------------------------------------------------------

@st.composite
def small_states(draw):
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4))
    codes = draw(st.sets(st.integers(0, d ** n - 1), min_size=1, max_size=12))
    signed = draw(st.booleans())
    terms = []
    for code in codes:
        word = digits_to_word([code // d ** (n - 1 - i) % d for i in range(n)])
        if signed:
            phase = draw(st.sampled_from([1.0, -1.0]))
        else:
            phase = cmath.exp(1j * draw(st.floats(-np.pi, np.pi)))
        terms.append((word, phase))
    k = draw(st.integers(1, n - 1))
    return PureState(n, d, tuple(terms)), k


@settings(max_examples=200, deadline=None)
@given(small_states())
def test_uniformity_matches_dense_oracle(case):
    state, k = case
    n, d = state.qudits, state.levels
    report = uniformity(state, k)
    assert len(report.subsets) == comb(n, k)
    eye = np.eye(d ** k) / d ** k
    failed = False
    for sub, kept in zip(report.subsets, itertools.combinations(range(n), k)):
        assert sub.kept_labels == tuple(c + 1 for c in kept)
        rho = dense_reduced_density(state.terms, n, d, kept)
        assert sub.deviation == pytest.approx(np.max(np.abs(rho - eye)),
                                              abs=1e-12)
        assert sub.maximally_mixed == (sub.deviation <= report.tolerance)
        if sub.maximally_mixed or d ** k > 64:
            assert sub.eigenvalues is None
        else:
            assert np.allclose(sub.eigenvalues, eigvalsh(rho), atol=1e-9)
        failed |= not sub.maximally_mixed
    assert report.certified is not failed
    assert max_uniformity(state) == max(
        [0] + [j for j in range(1, n // 2 + 1) if uniformity(state, j).certified])
    if len(set(state.phases)) == 1:
        assert is_k_uniform_by_graphs(state, k) is report.certified


def test_certifying_builds_no_dense_reduction(monkeypatch):
    def refuse(state, keep):
        raise AssertionError(f"dense reduction of {keep} built")
    monkeypatch.setattr(kuniform.states, "reduce", refuse)
    report = uniformity(state_from_oa(bush_oa(5, 3)), 3)
    assert report.certified
    assert len(report.subsets) == comb(6, 3)


def test_max_uniformity_of_bush_8_3():
    # k = 4 would need 126 dense 4096 x 4096 reductions
    assert max_uniformity(state_from_oa(bush_oa(8, 3))) == 3


def test_large_dimension_failure_has_no_eigenvalues():
    # a dense 36**3-dimensional reduction would take 34.8 GB
    ghz = PureState(4, 36, (("0000", 1.0), ("zzzz", 1.0)))
    report = uniformity(ghz, 3)
    assert not report.certified
    for sub in report.subsets:
        assert not sub.maximally_mixed and sub.eigenvalues is None
        assert sub.deviation == pytest.approx(0.5 - 36.0 ** -3, abs=1e-15)


def test_reduce_refuses_an_oversized_matrix_before_allocating():
    # 36**3 x 36**3 complex entries would take 34.8 GB
    ghz = PureState(4, 36, (("0000", 1.0), ("zzzz", 1.0)))
    start = time.perf_counter()
    with pytest.raises(TooLarge) as info:
        reduce(ghz, [0, 1, 2])
    assert time.perf_counter() - start < 1.0
    assert isinstance(info.value, KuniformError)
    assert not isinstance(info.value, MemoryError)


def test_report_fields_are_python_scalars(fixtures_dir):
    report = uniformity(load_ket(fixtures_dir, "signfix_n5_input"), 2)
    assert type(report.certified) is bool
    for sub in report.subsets:
        assert type(sub.maximally_mixed) is bool
        assert type(sub.deviation) is float
        if sub.eigenvalues is not None:
            assert all(type(v) is float for v in sub.eigenvalues)
