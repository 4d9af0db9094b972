"""The integer-grid form of states: the grid and phase vector against the
string-term oracle, input validation on every path that makes a state, and
the 36-level limit of the text views."""

import cmath
import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import (
    KuniformError,
    OrthogonalArray,
    ParameterViolation,
    PureState,
    Unsupported,
    bush_oa,
    graph_from_state,
    orbit_state,
    state_from_oa,
    to_json,
    uniformity,
    write_ket,
)

import oracles

DIGITS36 = oracles.DIGITS36


# ---------------------------------------------------------------------------
# against the string-term oracle
# ---------------------------------------------------------------------------

FAULTS = (None, None, "length", "symbol", "phase", "duplicate")


@st.composite
def term_sets(draw):
    """(n, d, terms, fault): distinct random words in shuffled order with
    random or +/-1 phases, and at most one injected fault."""
    d = draw(st.integers(2, 36))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, min(12, d ** n)))
    words = draw(st.lists(
        st.text(alphabet=DIGITS36[:d], min_size=n, max_size=n),
        min_size=r, max_size=r, unique=True))
    if draw(st.booleans()):
        phases = [draw(st.sampled_from([1.0, -1.0])) for _ in words]
    else:
        phases = [cmath.exp(1j * draw(st.floats(-4, 4))) for _ in words]
    terms = list(zip(words, phases))
    fault = draw(st.sampled_from(FAULTS))
    i = draw(st.integers(0, r - 1))
    word, phase = terms[i]
    if fault == "length":
        terms[i] = (word + "0" if draw(st.booleans()) or n == 1
                    else word[1:], phase)
    elif fault == "symbol":
        bad = draw(st.sampled_from(
            ["A", "-", "é"] + ([DIGITS36[d]] if d < 36 else [])))
        j = draw(st.integers(0, n - 1))
        terms[i] = (word[:j] + bad + word[j + 1:], phase)
    elif fault == "phase":
        terms[i] = (word, phase * draw(st.sampled_from([0.5, 2.0, 1.001])))
    elif fault == "duplicate":
        terms.append((word, -phase))
    random.Random(draw(st.integers(0, 2 ** 32))).shuffle(terms)
    return n, d, tuple(terms), fault


@settings(max_examples=300, deadline=None)
@given(term_sets(), st.randoms(use_true_random=False))
def test_grid_state_matches_the_string_oracle(case, rng):
    n, d, terms, fault = case
    try:
        want = oracles.StringState(n, d, terms)
    except oracles.StateRejected as rejected:
        with pytest.raises(KuniformError) as raised:
            PureState(n, d, terms)
        assert type(raised.value).__name__ == rejected.kind
        assert fault is not None
        return
    assert fault is None
    got = PureState(n, d, terms)
    assert got.terms == want.terms
    assert got.words == want.words
    assert got.phases == want.phases
    assert all(type(p) is complex for p in got.phases)
    assert (got.qudits, got.levels, got.term_count) == (n, d, len(terms))
    assert write_ket(got) == oracles.string_ket(want)
    back = pickle.loads(pickle.dumps(got))
    assert back == got and hash(back) == hash(got)
    assert back.terms == want.terms

    # a reshuffle, a -0.0 imaginary part, and one flipped phase
    shuffled = list(terms)
    rng.shuffle(shuffled)
    signed = [(w, complex(p.real, -0.0) if complex(p).imag == 0 else p)
              for w, p in terms]
    flipped = [(w, -p) if k == 0 else (w, p) for k, (w, p) in enumerate(terms)]
    for other in (shuffled, signed, flipped):
        other_got = PureState(n, d, tuple(other))
        other_want = oracles.StringState(n, d, tuple(other))
        assert (other_got == got) == (other_want == want)
        if other_want == want:
            assert hash(other_got) == hash(got)


def test_views_are_built_on_first_use_and_read_only():
    state = PureState(2, 3, (("21", 1.0), ("02", -1.0)))
    assert not {"terms", "words", "phases"} & set(vars(state))
    assert state.grid.tolist() == [[0, 2], [2, 1]]
    assert state.grid.dtype == np.uint8
    assert state.phase_vector.tolist() == [-1.0, 1.0]
    with pytest.raises(ValueError):
        state.grid[0, 0] = 1
    with pytest.raises(ValueError):
        state.phase_vector[0] = 1.0
    assert state.terms is state.terms


# ---------------------------------------------------------------------------
# validation on every entry point
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("phase", [NAN, INF, complex(NAN, 0.0),
                                   complex(1.0, NAN)])
def test_constructor_rejects_non_finite_phases(phase):
    with pytest.raises(ParameterViolation):
        PureState(2, 2, (("01", phase),))


def test_state_from_oa_rejects_non_finite_phases():
    array = OrthogonalArray(((0, 1), (1, 0)), 2)
    with pytest.raises(ParameterViolation):
        state_from_oa(array, [NAN, 1.0])


@pytest.mark.parametrize("angle", [NAN, INF, -INF])
def test_orbit_state_rejects_non_finite_angles(angle):
    state = PureState(2, 2, (("01", 1.0), ("10", 1.0)))
    with pytest.raises(ParameterViolation):
        orbit_state(state, [angle])


@pytest.mark.parametrize("word", [b"01", [0, 1], ("0", "1"), 1])
def test_constructor_rejects_words_that_are_not_str(word):
    with pytest.raises(ParameterViolation):
        PureState(2, 2, ((word, 1.0),))
    with pytest.raises(ParameterViolation):
        PureState(2, 2, (("10", 1.0), (word, 1.0)))


# ---------------------------------------------------------------------------
# levels beyond the base-36 text formats
# ---------------------------------------------------------------------------

def test_a_37_level_state_certifies_and_its_text_views_raise():
    state = state_from_oa(bush_oa(37, 1))
    assert (state.qudits, state.levels, state.term_count) == (38, 37, 37)
    assert uniformity(state, 1).certified
    assert len(state.phases) == 37
    for view in ("terms", "words"):
        with pytest.raises(Unsupported):
            getattr(state, view)
    with pytest.raises(Unsupported):
        write_ket(state)
    with pytest.raises(Unsupported):
        graph_from_state(state, [0])


def test_levels_are_capped_by_the_uint8_grid():
    assert PureState(1, 256, (("z", 1.0),)).levels == 256
    for levels in (1, 257):
        with pytest.raises(ParameterViolation):
            PureState(1, levels, (("0", 1.0),))
    wide = OrthogonalArray(((0, 1), (256, 0)), 257)
    with pytest.raises(ParameterViolation):
        state_from_oa(wide)


def test_a_state_above_36_levels_builds_from_text_symbols_only():
    state = PureState(2, 40, (("z0", 1.0), ("0z", 1.0)))
    assert state.grid.tolist() == [[0, 35], [35, 0]]
    with pytest.raises(ParameterViolation):
        PureState(2, 40, (("z?", 1.0),))


def test_36_levels_is_the_last_count_with_text_views():
    state = PureState(2, 36, (("z0", 1.0), ("0z", -1.0)))
    assert state.words == ("0z", "z0")
    assert write_ket(state) == "-|0z> +|z0>\n"
    doc = json.loads(to_json(graph_from_state(state, [1])))
    assert doc["d"] == 36 and len(doc["vertices_a"]) == 36
