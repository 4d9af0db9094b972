"""The bulk uniformity report against the one-record-at-a-time loop.

`uniformity` builds its records from whole arrays of subsets, verdicts and
deviations.  `oracles.per_subset_report` builds them one frozen-dataclass
record at a time from the same deviation blocks; every record must agree
field for field, bit for bit and in its repr text.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.cli
import kuniform.oa
from kuniform import (
    PureState,
    SubsetReport,
    UniformityReport,
    bush_extended_oa,
    bush_oa,
    hadamard_two_uniform_state,
    parse_ket,
    state_from_oa,
    uniformity,
)
from kuniform.cli import main
from kuniform.states import DEFAULT_TOL, EIGENVALUE_DIM_LIMIT, digits_to_word

from oracles import per_subset_report


def assert_same_report(state, k, tol=DEFAULT_TOL):
    report = uniformity(state, k, tol)
    certified, expected = per_subset_report(state, k, tol)
    assert type(report.subsets) is tuple
    assert report.certified is certified
    assert len(report.subsets) == len(expected) == math.comb(state.qudits, k)
    dense_eigenvalues = state.levels ** k <= EIGENVALUE_DIM_LIMIT
    for got, want in zip(report.subsets, expected):
        assert type(got) is SubsetReport
        assert got.kept_labels == want.kept_labels
        assert all(type(c) is int for c in got.kept_labels)
        assert type(got.maximally_mixed) is bool
        assert got.maximally_mixed == want.maximally_mixed
        assert type(got.deviation) is float
        assert got.deviation.hex() == want.deviation.hex()
        if got.maximally_mixed or not dense_eigenvalues:
            assert got.eigenvalues is None
        else:
            assert type(got.eigenvalues) is tuple
            assert all(type(v) is float for v in got.eigenvalues)
            assert ([v.hex() for v in got.eigenvalues]
                    == [v.hex() for v in want.eigenvalues])
        assert repr(got) == repr(want)
    return report


def fixture_kets(fixtures_dir):
    return [parse_ket(path.read_text())
            for path in sorted(fixtures_dir.glob("*.ket"))]


def some_k(n):
    """k = 1, 2, 3 (failing subsets with eigenvalues) and N - 1 (failing
    subsets past the eigenvalue limit from N = 8 qubits), within 1..N - 1."""
    return sorted({1, 2, 3, n - 1} & set(range(1, n)))


def test_every_fixture_ket(fixtures_dir):
    for state in fixture_kets(fixtures_dir):
        for k in some_k(state.qudits):
            assert_same_report(state, k)


@pytest.mark.parametrize("n", range(6, 41))
def test_hadamard_states(n):
    state = hadamard_two_uniform_state(n)
    assert assert_same_report(state, 2).certified
    if n <= 12:
        assert not assert_same_report(state, 3).certified


@pytest.mark.parametrize("array", [
    lambda: bush_oa(2, 2), lambda: bush_oa(3, 2), lambda: bush_oa(4, 3),
    lambda: bush_oa(5, 3), lambda: bush_oa(8, 3), lambda: bush_extended_oa(4),
])
def test_bush_states(array):
    state = state_from_oa(array())
    for k in range(1, state.qudits // 2 + 1):
        assert_same_report(state, k)


@st.composite
def random_states(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, 6))
    codes = draw(st.lists(st.integers(0, d ** n - 1), min_size=1,
                          max_size=min(d ** n, 40), unique=True))
    words = [digits_to_word(np.unravel_index(c, (d,) * n)) for c in codes]
    if draw(st.booleans()):
        phases = [draw(st.sampled_from((1.0, -1.0))) for _ in words]
    else:
        phases = [complex(np.exp(1j * draw(st.floats(-4, 4)))) for _ in words]
    return PureState(n, d, tuple(zip(words, phases)))


@settings(max_examples=120, deadline=None)
@given(random_states(), st.integers(1, 3))
def test_random_states(state, k):
    if k < state.qudits:
        assert_same_report(state, k)


@settings(max_examples=40, deadline=None)
@given(random_states(), st.integers(1, 3), st.integers(1, 200))
def test_random_states_in_many_blocks(state, k, cells):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
        if k < state.qudits:
            assert_same_report(state, k)


@pytest.mark.parametrize("cells", [1, 32, 200])
def test_fixture_kets_in_many_blocks(monkeypatch, fixtures_dir, cells):
    monkeypatch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
    for state in fixture_kets(fixtures_dir):
        for k in range(1, min(3, state.qudits - 1) + 1):
            assert_same_report(state, k)


def test_record_is_a_named_tuple():
    record = uniformity(parse_ket("+|00> +|11>"), 1).subsets[0]
    assert record == ((1,), True, 0.0, None)
    labels, ok, deviation, eigenvalues = record
    assert (labels, ok, deviation, eigenvalues) == ((1,), True, 0.0, None)
    assert SubsetReport((2,), False, 0.5) == ((2,), False, 0.5, None)
    assert repr(record) == ("SubsetReport(kept_labels=(1,), maximally_mixed="
                            "True, deviation=0.0, eigenvalues=None)")
    with pytest.raises(AttributeError):
        record.deviation = 1.0


def loop_uniformity(state, k, tol=DEFAULT_TOL):
    certified, records = per_subset_report(state, k, tol)
    return UniformityReport(state.qudits, state.levels, k, tol, certified,
                            records)


def test_state_check_output_is_unchanged(monkeypatch, fixtures_dir):
    """`state check`, plain and --json, prints the same bytes and exits
    the same way from the bulk report as from the loop-built one."""
    runner = CliRunner()
    runs = []
    for path in sorted(fixtures_dir.glob("*.ket")):
        n = parse_ket(path.read_text()).qudits
        for k in range(1, min(3, n // 2) + 1):
            for extra in ([], ["--json"]):
                runs.append([str(path), "--k", str(k), *extra])
    bulk = [runner.invoke(main, ["state", "check", *args]) for args in runs]
    monkeypatch.setattr(kuniform.cli, "uniformity", loop_uniformity)
    for args, got in zip(runs, bulk):
        want = runner.invoke(main, ["state", "check", *args])
        assert got.exit_code == want.exit_code in (0, 2), args
        assert got.output == want.output, args
        if "--json" in args:
            json.loads(got.output)
