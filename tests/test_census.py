"""The pair census against the oracles, and the certifiers on both paths.

`oa._pair_census` reads the rows' distance distribution A and their close
pairs off every row pair.  Where the cost rule `oa._census_pays` holds,
strength comes from Delsarte's test on A, and k-uniformity, irredundancy
and `oa verify` are answered from the census instead of the C(N, k) scan.
The tests force one path or the other by replacing the cost rule, and
require the same answers, bit for bit.
"""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.oa
import kuniform.states
from kuniform import (
    OrthogonalArray,
    ParameterViolation,
    PureState,
    TooLarge,
    bush_extended_oa,
    bush_oa,
    constraint_system,
    fix_state,
    hadamard,
    hadamard_to_oa,
    hadamard_two_uniform_state,
    is_irredundant,
    is_maximally_mixed,
    is_k_uniform_by_graphs,
    max_strength,
    max_uniformity,
    parse_ket,
    parse_oa_file,
    rao_oa,
    reduce,
    state_from_oa,
    uniformity,
    verify_strength,
    write_ket,
    write_oa_file,
)
from kuniform.cli import main
from kuniform.errors import KuniformError
from kuniform.oa import (_close_pairs, _delsarte_strength, _kept_codes,
                         _pair_census)
from kuniform.states import DEFAULT_TOL, _is_k_uniform

from oracles import close_pairs, naive_max_strength, naive_strength_ok
from test_bulk_report import random_states

def on_path(census, call):
    """call() with every consumer taking the census (True), the scan
    (False) or the cost rule's choice (None)."""
    if census is None:
        return call()
    with pytest.MonkeyPatch.context() as patch:
        rule = ((lambda grid, k, reach, d: 0 <= k <= grid.shape[1])
                if census else (lambda grid, k, reach, d: False))
        patch.setattr(kuniform.oa, "_census_pays", rule)
        return call()


def on_every_path(call):
    """call()'s answer, required equal on the three paths."""
    scan = on_path(False, call)
    for census in (True, None):
        assert on_path(census, call) == scan, census
    return scan


# ---------------------------------------------------------------------------
# the census against plain counts and the oracles
# ---------------------------------------------------------------------------

@st.composite
def arrays(draw):
    """(rows, d) over d up to 256: rows drawn from a small pool (so rows
    repeat), linear arrays over Z_d stacked once or twice, or columns that
    each list every symbol once; sometimes with one cell changed, a
    planted failure of their strength."""
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 16, 256]))
    kind = draw(st.sampled_from(["pool", "linear", "cyclic"]))
    if kind == "linear" and d <= 6:
        m = draw(st.integers(1, 2 if d > 3 else 3))
        extra = draw(st.lists(st.lists(st.integers(0, d - 1), min_size=m,
                                       max_size=m), max_size=4))
        rows = []
        for free in itertools.product(range(d), repeat=m):
            rows.append(tuple(free) + tuple(
                sum(a * x for a, x in zip(c, free)) % d for c in extra))
        rows *= draw(st.integers(1, 2))
    elif kind == "cyclic":
        maps = draw(st.lists(st.tuples(st.sampled_from([1, 3, 5]),
                                       st.integers(0, d - 1)),
                             min_size=1, max_size=4))
        rows = [tuple((a * i + b) % d for a, b in maps) for i in range(d)]
    else:
        n = draw(st.integers(1, 8))
        pool = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * n),
                             min_size=1, max_size=8))
        rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        row = list(rows[i])
        row[j] = (row[j] + draw(st.integers(1, d - 1))) % d
        rows[i] = tuple(row)
    return draw(st.permutations(rows)), d


def all_pairs_distribution(rows):
    n = len(rows[0])
    counts = [0] * (n + 1)
    for a in rows:
        for b in rows:
            counts[sum(x != y for x, y in zip(a, b))] += 1
    return counts


@settings(max_examples=150, deadline=None)
@given(arrays(), st.sampled_from([1, 5, 64, kuniform.oa._BLOCK_CELLS]))
def test_distribution_is_the_all_pairs_count(rows_d, cells):
    rows, d = rows_d
    grid = OrthogonalArray(rows, d).grid
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
        census = _pair_census(grid, -1)
    assert list(census.distances) == all_pairs_distribution(rows)
    assert all(type(a) is int for a in census.distances)
    apart = [sum(x != y for x, y in zip(a, b))
             for a, b in itertools.combinations(rows, 2)]
    assert census.separation == min(apart, default=len(rows[0]) + 1)
    assert not len(census.pairs[0])


@settings(max_examples=150, deadline=None)
@given(arrays())
def test_delsarte_strength_is_the_counted_strength(rows_d):
    rows, d = rows_d
    array = OrthogonalArray(rows, d)
    n, distances = array.factors, _pair_census(array.grid, -1).distances
    best = naive_max_strength(rows, d)
    assert _delsarte_strength(distances, n, d, n) == best
    for k in range(n + 1):
        holds = naive_strength_ok(rows, d, k)
        assert _delsarte_strength(distances, n, d, k) == min(k, best)
        assert on_path(False, lambda: verify_strength(array, k)) == holds
        assert on_path(True, lambda: verify_strength(array, k)) == holds
    assert on_path(False, lambda: max_strength(array)) == best
    assert on_path(True, lambda: max_strength(array)) == best


#: symbols per grid type: small ones, the top bit of the type's lanes and
#: a full lane
LANE_SYMBOLS = {np.uint8: (0, 1, 2, 3, 0x0F, 0x80, 0xFF),
                np.uint16: (0, 1, 0x80, 0x8000, 0xFFFF),
                np.uint32: (0, 1, 0x8000, 2 ** 31, 2 ** 32 - 1),
                np.uint64: (0, 1, 2 ** 31, 2 ** 63, 2 ** 64 - 1)}


@st.composite
def lane_grids(draw):
    """(dtype, rows): up to 70 columns over one to three symbols of the
    type, so uint8 grids pack into 1-, 2-, 4- and 8-bit lanes and rows span
    several 64-bit words."""
    dtype = draw(st.sampled_from(sorted(LANE_SYMBOLS, key=str)))
    symbols = draw(st.lists(st.sampled_from(LANE_SYMBOLS[dtype]),
                            min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 70))
    row = st.tuples(*[st.sampled_from(symbols)] * n)
    return dtype, draw(st.lists(row, min_size=1, max_size=24))


def pair_set(u, v, support):
    return {(i, j, s.tobytes()) for i, j, s in
            zip(u.tolist(), v.tolist(), support)}


@settings(max_examples=300, deadline=None)
@given(lane_grids(), st.data())
def test_census_pairs_are_the_close_pairs(grid_rows, data):
    dtype, rows = grid_rows
    grid = np.array(rows, dtype=dtype)
    reach = data.draw(st.integers(0, grid.shape[1]))
    cells = data.draw(st.sampled_from([1, 5, 64, kuniform.oa._BLOCK_CELLS]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kuniform.oa, "_BLOCK_CELLS", cells)
        census = _pair_census(grid, reach)
    u, v, support = census.pairs
    assert support.dtype == np.uint8
    assert np.array_equal(support, np.packbits(grid[u] != grid[v], axis=1))
    assert pair_set(*census.pairs) == pair_set(*_close_pairs(grid, reach))
    assert sorted(zip(u.tolist(), v.tolist())) == close_pairs(rows, reach)
    assert list(census.distances) == all_pairs_distribution(rows)


def test_census_memory_is_one_chunk_beyond_its_result():
    # 4096 rows hold 8.4M pairs; beyond its result and the packed rows the
    # census holds one chunk's few arrays of _BLOCK_CELLS 64-bit words
    grid = np.random.default_rng(4).integers(0, 2, (4096, 24), np.uint8)
    chunk = 8 * kuniform.oa._BLOCK_CELLS
    tracemalloc.start()
    try:
        census = _pair_census(grid, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(census.distances) == 4096 ** 2
    held = sum(a.nbytes for a in census.pairs) + 4096 * 8
    assert peak <= 4 * chunk + held


# ---------------------------------------------------------------------------
# kept-word codes of a uint64 grid, and the record-count guard
# ---------------------------------------------------------------------------

def test_kept_codes_of_a_uint64_grid_follow_the_column_ranks():
    rng = random.Random(40)
    symbols = (0, 1, 2 ** 32, 2 ** 39, 2 ** 40 - 1)
    rows = [tuple(rng.choice(symbols) for _ in range(3)) for _ in range(40)]
    grid = OrthogonalArray(rows, 2 ** 40).grid
    assert grid.dtype == np.uint64
    ranked = np.array([np.unique(column, return_inverse=True)[1]
                       for column in grid.T], dtype=np.uint8).T
    for k in (1, 2, 3):
        subsets = np.array(list(itertools.combinations(range(3), k)))
        codes = _kept_codes(grid, 2 ** 40, subsets)
        want = _kept_codes(ranked, len(symbols), subsets)
        for got, expected in zip(codes, want):
            assert np.array_equal(np.unique(got, return_inverse=True)[1],
                                  np.unique(expected, return_inverse=True)[1])


def test_a_report_too_large_to_list_fails_fast():
    # C(40, 20) records, about 1.4e11: refused before any of them is made
    state = hadamard_two_uniform_state(40)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="137846528820 subsets"):
            uniformity(state, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert kuniform.states.DENSE_BYTES_LIMIT == 1 << 30
    assert _is_k_uniform(state, 20) is False


def test_bad_k_and_tol_fail_before_either_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("a census or scan ran")

    monkeypatch.setattr(kuniform.oa, "_pair_census", refuse)
    monkeypatch.setattr(kuniform.states, "_subset_cells", refuse)
    state = hadamard_two_uniform_state(12)
    for call in (uniformity, _is_k_uniform):
        for k, tol in ((0, DEFAULT_TOL), (12, DEFAULT_TOL), (2, 0.0),
                       (2, -1.0)):
            with pytest.raises(ParameterViolation):
                call(state, k, tol)
    with pytest.raises(ParameterViolation):
        max_uniformity(state, 0.0)
    # one qudit: max_uniformity has no k to try, but still checks tol
    with pytest.raises(ParameterViolation):
        max_uniformity(PureState(1, 2, [("0", 1)]), -1.0)


@pytest.mark.parametrize("census", [False, True, None])
def test_a_nan_tolerance_is_refused_on_every_path(census):
    # NaN <= 0 is False, so a "tol <= 0" check lets NaN through, and the
    # verdict would then depend on the path (every comparison with NaN is
    # False: the census would certify this state at k = 2, the scan not)
    state = hadamard_two_uniform_state(8)
    nan = float("nan")
    rho = reduce(state, [0, 1])
    for call in (lambda: uniformity(state, 2, nan),
                 lambda: _is_k_uniform(state, 2, nan),
                 lambda: max_uniformity(state, nan),
                 lambda: is_maximally_mixed(rho, nan)):
        with pytest.raises(ParameterViolation, match="tol must be positive"):
            on_path(census, call)


def test_state_check_refuses_a_nan_tolerance(tmp_path):
    path = tmp_path / "had8.ket"
    path.write_text(write_ket(hadamard_two_uniform_state(8)))
    result = CliRunner().invoke(main, ["state", "check", str(path), "--k",
                                       "2", "--tol", "nan"])
    assert result.exit_code == 1
    assert result.output == "error: tol must be positive\n"


# ---------------------------------------------------------------------------
# states: reports, verdicts and maxima on both paths
# ---------------------------------------------------------------------------

def signed(array, seed, unit):
    """The array's state with seeded phases: +/-1, or anywhere on the
    unit circle."""
    rng = random.Random(seed)
    phases = [rng.choice((1.0, -1.0)) if unit == "sign"
              else complex(np.exp(1j * rng.uniform(-4, 4)))
              for _ in range(array.runs)]
    return state_from_oa(array, phases)


def repaired_states():
    """Sign-repaired states of seeded Hadamard column subsets."""
    rng = random.Random(7)
    found = []
    for order, k, m in ((8, 2, 5), (16, 1, 5), (16, 2, 6), (16, 2, 8),
                        (24, 1, 7), (24, 2, 12), (32, 2, 16)):
        base = hadamard_to_oa(hadamard(order)).grid
        for _ in range(40):
            cols = sorted(rng.sample(range(base.shape[1]), m))
            array = OrthogonalArray(base[:, cols], 2)
            try:
                state = fix_state(array, k)
            except KuniformError:
                continue
            if isinstance(state, PureState):
                found.append((state, k))
                break
    return found


def tolerances(state, k):
    """The default and both sides of the fast-False bounds 1/(2 r d**k)
    and 1/(2r), and of 1/(r d**k) and 1/r."""
    r, dim = state.term_count, state.levels ** k
    return [DEFAULT_TOL] + [f / b for b in (r * dim, r)
                            for f in (0.49, 0.51, 0.99, 1.01)]


def check_paths(state, ks, tols=None):
    """uniformity, _is_k_uniform and max_uniformity agree on every path;
    the verdicts also agree with the scan's full report."""
    for k in ks:
        for tol in tols or tolerances(state, k):
            report = on_every_path(lambda: uniformity(state, k, tol))
            for census in (False, True, None):
                assert repr(on_path(census, lambda: uniformity(
                    state, k, tol))) == repr(report)
                assert on_path(census, lambda: _is_k_uniform(
                    state, k, tol)) is report.certified
    for tol in tols or tolerances(state, 1)[:5]:
        best = on_every_path(lambda: max_uniformity(state, tol))
        assert best == next((k - 1 for k in range(1, state.qudits // 2 + 1)
                             if not uniformity(state, k, tol).certified),
                            state.qudits // 2)


def proper_ks(state, most=3):
    return range(1, min(most, state.qudits - 1) + 1)


def test_fixture_kets_on_both_paths(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.ket")):
        state = parse_ket(path.read_text())
        check_paths(state, proper_ks(state))


@pytest.mark.parametrize("n", range(6, 41))
def test_hadamard_states_on_both_paths(n):
    state = hadamard_two_uniform_state(n)
    check_paths(state, (2, 3) if n <= 12 else (2,),
                None if n <= 20 else [DEFAULT_TOL])


@pytest.mark.parametrize("array", [
    lambda: bush_oa(2, 2), lambda: bush_oa(3, 2), lambda: bush_oa(4, 3),
    lambda: bush_oa(5, 3), lambda: bush_extended_oa(4), lambda: rao_oa(2, 3),
    lambda: rao_oa(2, 4), lambda: rao_oa(3, 3),
])
def test_bush_and_rao_states_on_both_paths(array):
    a = array()
    for state in (state_from_oa(a), signed(a, 1, "sign"),
                  signed(a, 2, "circle")):
        check_paths(state, proper_ks(state, 4),
                    [DEFAULT_TOL, 0.51 / state.term_count])


def test_sign_repaired_states_on_both_paths():
    found = repaired_states()
    assert len(found) >= 5
    for state, k in found:
        check_paths(state, (k, k + 1))


@settings(max_examples=30, deadline=None)
@given(random_states())
def test_random_states_on_both_paths(state):
    check_paths(state, proper_ks(state))


def test_a_proven_state_without_close_pairs_forms_no_codes(monkeypatch):
    calls = []
    real = kuniform.oa._kept_codes

    def spy(*args):
        calls.append(args[2].shape)
        return real(*args)

    monkeypatch.setattr(kuniform.oa, "_kept_codes", spy)
    monkeypatch.setattr(kuniform.states, "_kept_codes", spy)
    state = hadamard_two_uniform_state(40)
    assert kuniform.oa._census_pays(state.grid, 2, 2, 2)
    report = uniformity(state, 2)
    assert report.certified and len(report.subsets) == math.comb(40, 2)
    assert _is_k_uniform(state, 2)
    assert calls == []
    # the scan, for contrast, forms the codes of every block
    assert on_path(False, lambda: uniformity(state, 2)) == report
    assert calls


def spy_calls(monkeypatch, names):
    """Count the calls of the oa kernels `names`, wherever they are
    looked up."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(kuniform.oa, name)

        def spy(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in (kuniform.oa, kuniform.states):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("n", range(8, 20))
def test_small_hadamard_states_take_one_census_and_no_scan(monkeypatch, n):
    # r <= 32 rows of one 64-bit word: the census fits half a chunk, so
    # max_uniformity takes it at k = 1, where r * words >= C(N, 1) would
    # choose the scan, and it answers every k
    state = hadamard_two_uniform_state(n)
    best = on_path(False, lambda: max_uniformity(state))
    calls = spy_calls(monkeypatch, ("_pair_census", "_close_pairs",
                                    "_kept_codes"))
    assert max_uniformity(state) == best
    assert calls == {"_pair_census": 1, "_close_pairs": 0, "_kept_codes": 0}


def balanced_state(rows, n, d, seed):
    """A common-phase state on `rows` distinct random words over d levels
    and each of their d shifts (x + s mod d), so strength 1 holds; plus
    one more word when `rows` is no multiple of d."""
    rng = np.random.default_rng(seed)
    base = np.unique(rng.integers(0, d, (rows, n)), axis=0)[:rows // d]
    grid = np.unique(np.concatenate([(base + s) % d for s in range(d)]),
                     axis=0)
    while len(grid) < rows:
        grid = np.unique(np.vstack([grid, rng.integers(0, d, (1, n))]),
                         axis=0)
    assert grid.shape == (rows, n)
    return kuniform.states._from_grid(grid.astype(np.uint8), d,
                                      np.ones(rows))


@pytest.mark.parametrize("rows,n,d,pays", [
    (128, 70, 2, False),   # r**2 words = 2**15: one census chunk
    (129, 70, 2, False),   # one row more: two chunks
    (128, 40, 2, True),    # r**2 words = 2**14: the largest census at k = 1
    (129, 30, 3, False),   # one row more, strength 1 still possible
])
def test_the_chunk_boundaries_on_every_path(rows, n, d, pays):
    state = balanced_state(rows, n, d, rows + n)
    grid = state.grid
    assert kuniform.oa._census_pays(grid, 1, 1, d) is pays
    distances = list(_pair_census(grid, 1).distances)
    assert distances == all_pairs_distribution(grid.tolist())
    check_paths(state, (1, 2), [DEFAULT_TOL])


def test_a_state_with_no_possible_strength_keeps_the_scan(monkeypatch):
    # 127 rows in one word fit half a census chunk, but 2 does not divide
    # 127: strength 1 is impossible, so the census could decide nothing
    # the scan does not, and only the scan runs
    rng = np.random.default_rng(7)
    grid = np.unique(rng.integers(0, 2, (400, 12)), axis=0)
    grid = grid[rng.permutation(len(grid))[:127]].astype(np.uint8)
    state = kuniform.states._from_grid(grid, 2, np.ones(127))
    assert 2 * 127 ** 2 <= kuniform.oa._BLOCK_CELLS
    assert not kuniform.oa._census_pays(grid, 1, 1, 2)
    want = on_path(False, lambda: uniformity(state, 1))
    calls = spy_calls(monkeypatch, ("_pair_census", "_close_pairs"))
    assert uniformity(state, 1) == want and not want.certified
    assert calls == {"_pair_census": 0, "_close_pairs": 1}


# ---------------------------------------------------------------------------
# arrays: graph rules, sign systems and `oa verify` on both paths
# ---------------------------------------------------------------------------

def test_graph_rules_on_both_paths(fixtures_dir):
    states = [parse_ket(path.read_text())
              for path in sorted(fixtures_dir.glob("*.ket"))]
    states += [state_from_oa(parse_oa_file(path.read_text()))
               for path in sorted(fixtures_dir.glob("*.oa"))]
    states += [hadamard_two_uniform_state(n) for n in (6, 9, 16, 23)]
    states += [state_from_oa(a) for a in (bush_oa(3, 2), bush_oa(4, 3),
                                          rao_oa(2, 4), rao_oa(3, 3))]
    for state in states:
        if (state.phase_vector != state.phase_vector[0]).any():
            continue
        for k in proper_ks(state, 3):
            verdict = on_every_path(lambda: is_k_uniform_by_graphs(state, k))
            assert verdict is uniformity(state, k).certified
            assert on_every_path(lambda: _is_k_uniform(state, k)) is verdict


def test_graph_rules_take_one_census_where_the_close_pairs_would(monkeypatch):
    # 49 rows over 8 columns: the census does not pay for strength alone
    # (r * words = 49 >= C(8, 2) = 28), but all its pair words fit half a
    # chunk, as for the other readers of the close pairs
    state = state_from_oa(bush_oa(7, 2))
    calls = spy_calls(monkeypatch, ("_pair_census", "_close_pairs",
                                    "_kept_codes"))
    assert is_k_uniform_by_graphs(state, 2)
    assert calls == {"_pair_census": 1, "_close_pairs": 0, "_kept_codes": 0}


def sign_answer(array, k):
    """constraint_system's constraints or its error, and fix_state's
    phases or its error."""
    answers = []
    for call in (constraint_system, fix_state):
        try:
            result = call(array, k)
        except KuniformError as exc:
            result = type(exc).__name__
        answers.append(result.phases if isinstance(result, PureState)
                       else result)
    return answers


def test_sign_systems_on_both_paths(fixtures_dir):
    arrays = [parse_oa_file(path.read_text())
              for path in sorted(fixtures_dir.glob("*.oa"))]
    base = hadamard_to_oa(hadamard(16)).grid
    rng = random.Random(16)
    arrays += [OrthogonalArray(base[:, sorted(rng.sample(range(15), m))], 2)
               for m in (5, 6, 7, 8, 12)]
    for array in arrays:
        for k in range(1, array.factors // 2 + 1):
            on_every_path(lambda: sign_answer(array, k))
            on_every_path(lambda: is_irredundant(array, k))


CATALOG = [(bush_oa, (16, 2)), (rao_oa, (16, 2)), (bush_oa, (8, 3)),
           (rao_oa, (2, 6)), (rao_oa, (3, 4)), (bush_oa, (13, 2)),
           (rao_oa, (4, 3)), (bush_oa, (9, 3))]


def verify_outputs(path, factors):
    """(exit code, stdout) of `oa verify` with no strength and with every
    strength 0..N + 1."""
    runner = CliRunner()
    outputs = []
    for extra in [[]] + [["--strength", str(s)] for s in range(factors + 2)]:
        result = runner.invoke(main, ["oa", "verify", str(path)] + extra)
        outputs.append((result.exit_code, result.output))
    return outputs


def test_oa_verify_output_on_both_paths(fixtures_dir, tmp_path):
    paths = sorted(fixtures_dir.glob("*.oa"))
    for construct, params in CATALOG:
        path = tmp_path / f"{construct.__name__}_{params}.oa"
        path.write_text(write_oa_file(construct(*params)))
        paths.append(path)
    for path in paths:
        factors = parse_oa_file(path.read_text()).factors
        outputs = on_every_path(lambda: verify_outputs(path, factors))
        assert outputs[0][0] == 0


def test_oa_verify_reads_the_separation_off_the_strength_census(
        monkeypatch, tmp_path):
    # one census proves the header strength (the parser), and the strength
    # walk's census also gives the smallest distance between two rows
    census = kuniform.oa._pair_census
    calls = []

    def spy(grid, reach):
        calls.append(reach)
        return census(grid, reach)
    monkeypatch.setattr(kuniform.oa, "_pair_census", spy)
    for params in ((2, 6), (3, 4), (4, 3)):
        path = tmp_path / f"rao_{params}.oa"
        path.write_text(write_oa_file(rao_oa(*params)))
        calls.clear()
        result = CliRunner().invoke(main, ["oa", "verify", str(path)])
        assert result.exit_code == 0
        assert calls == [-1, -1], params
