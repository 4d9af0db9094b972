"""Failing-subset spectra in stacks, with no per-subset `reduce`.

`uniformity` builds the failing reductions of each block of subsets
together and takes their eigenvalues with one `np.linalg.eigvalsh` call
per chunk of at most `oa._BLOCK_CELLS` matrix entries.  The records must still
equal the per-subset `reduce` + `jacobi_eigvalsh` ones bit for bit
(`assert_same_report`).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.oa
import kuniform.states
from kuniform import (ParameterViolation, PureState, bush_oa, parse_ket,
                      state_from_oa, uniformity)
from kuniform.states import (DEFAULT_TOL, _deviations, _require_density,
                             digits_to_word)

from test_bulk_report import assert_same_report


def spy(patch):
    """Count `reduce` calls and record the shape of every eigenvalue call
    that `uniformity` makes."""
    calls = {"reduce": 0, "eig": []}
    reduce, eig = kuniform.states.reduce, np.linalg.eigvalsh

    def counted_reduce(*args):
        calls["reduce"] += 1
        return reduce(*args)

    def counted_eig(matrix):
        calls["eig"].append(np.shape(matrix))
        return eig(matrix)

    patch.setattr(kuniform.states, "reduce", counted_reduce)
    patch.setattr(np.linalg, "eigvalsh", counted_eig)
    return calls


def chunks_per_block(state, k):
    """ceil(failing subsets / matrices per stack) for each block."""
    dim = state.levels ** k
    size = max(1, kuniform.oa._BLOCK_CELLS // (dim * dim))
    return [math.ceil(np.count_nonzero(~(deviations <= DEFAULT_TOL)) / size)
            for _, deviations, *_ in _deviations(state, k, DEFAULT_TOL)]


def spied_uniformity(state, k):
    with pytest.MonkeyPatch.context() as patch:
        calls = spy(patch)
        report = uniformity(state, k)
    return report, calls


@pytest.mark.parametrize("cells", [None, 64, 200])
@pytest.mark.parametrize("name, k", [("signfix_n5_input", 2),
                                     ("hadamard16_n14", 3),
                                     ("ququart_n5_k2", 3)])
def test_uniformity_calls_no_reduce_and_one_eigen_per_chunk(
        monkeypatch, fixtures_dir, name, k, cells):
    if cells is not None:
        monkeypatch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
    state = parse_ket((fixtures_dir / f"{name}.ket").read_text())
    report, calls = spied_uniformity(state, k)
    assert not report.certified
    assert calls["reduce"] == 0
    chunks = chunks_per_block(state, k)
    assert len(calls["eig"]) == sum(chunks) > 0
    dim = state.levels ** k
    for stack in calls["eig"]:
        assert stack[1:] == (dim, dim)
        assert (stack[0] == 1
                or stack[0] * dim * dim <= kuniform.oa._BLOCK_CELLS)
    assert uniformity(state, k) == assert_same_report(state, k) == report
    if cells == 64 and name == "hadamard16_n14":
        assert max(chunks) > 1  # one matrix per stack, several per block


def test_stacks_hold_at_most_the_block_cells():
    # 10 failing 64 x 64 reductions in one block: stacks of 8 and 2
    state = state_from_oa(bush_oa(4, 3))
    report, calls = spied_uniformity(state, 3)
    assert calls["eig"] == [(8, 64, 64), (2, 64, 64)]
    assert calls["reduce"] == 0
    assert max(math.prod(s) for s in calls["eig"]) <= kuniform.oa._BLOCK_CELLS


def test_eigenvalues_up_to_dimension_64_and_none_beyond():
    # d**k = 64: bush_oa(4, 3) at k = 3 and eight levels at k = 2
    eight = PureState(3, 8, (("000", 1.0), ("777", 1.0), ("123", 1j)))
    for state, k in ((state_from_oa(bush_oa(4, 3)), 3), (eight, 2)):
        report = assert_same_report(state, k)
        failing = [s for s in report.subsets if not s.maximally_mixed]
        assert failing
        assert all(len(s.eigenvalues) == 64 for s in failing)
        assert math.fsum(failing[0].eigenvalues) == pytest.approx(1.0)
    # d**k = 81
    words = ("00000", "11111", "22222", "01201")
    state = PureState(5, 3, tuple((w, 1.0) for w in words))
    report, calls = spied_uniformity(state, 4)
    assert not report.certified and calls["eig"] == []
    assert all(s.eigenvalues is None for s in report.subsets)
    assert_same_report(state, 4)


def test_every_matrix_of_a_stack_passes_the_density_checks():
    stack = np.array([np.eye(4) / 4] * 3, dtype=complex)
    _require_density(stack)
    skewed = stack.copy()
    skewed[1, 0, 1] = 1e-9
    with pytest.raises(ParameterViolation, match="Hermitian"):
        _require_density(skewed)
    heavy = stack.copy()
    heavy[2, 0, 0] = 0.5
    with pytest.raises(ParameterViolation, match="trace"):
        _require_density(heavy)


@st.composite
def failing_states(draw):
    """Few complex-phase terms over many words: most subsets fail."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(4, 7))
    codes = draw(st.lists(st.integers(0, d ** n - 1), min_size=2,
                          max_size=min(d ** n, 24), unique=True))
    words = [digits_to_word(np.unravel_index(c, (d,) * n)) for c in codes]
    phases = [complex(np.exp(1j * draw(st.floats(-4, 4)))) for _ in words]
    return PureState(n, d, tuple(zip(words, phases)))


@settings(max_examples=60, deadline=None)
@given(failing_states(), st.integers(1, 3), st.integers(1, 300))
def test_random_failing_states_in_many_chunks(state, k, cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
        _, calls = spied_uniformity(state, k)
        assert calls["reduce"] == 0
        assert len(calls["eig"]) == sum(chunks_per_block(state, k))
        assert_same_report(state, k)
