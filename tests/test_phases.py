"""GF(2) sign fixing: constraint extraction, solving, and state repair."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kuniform.phases
from kuniform import (
    DuplicateRows,
    Infeasible,
    NotAnOAAtStrength,
    OddContributions,
    OrthogonalArray,
    ParameterViolation,
    PostconditionFailed,
    SignConstraint,
    SignConstraintSystem,
    Unsupported,
    UnsupportedMultiplicity,
    bush_oa,
    constraint_system,
    fix_state,
    hadamard,
    hadamard_to_oa,
    is_irredundant,
    parse_oa_file,
    permute_rows,
    solve_signs,
    state_from_oa,
    uniformity,
    write_ket,
)

from oracles import string_key_cells


def load_oa(fixtures_dir, name):
    return parse_oa_file((fixtures_dir / f"{name}.oa").read_text())


def full_factorial(d, n, strength=1):
    rows = tuple(itertools.product(range(d), repeat=n))
    return OrthogonalArray(rows=rows, levels=d, strength=strength)


# ---------------------------------------------------------------------------
# constraint extraction
# ---------------------------------------------------------------------------

def test_constraint_system_on_five_qubit_catalog(fixtures_dir):
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    assert system.variable_count == 8
    # two kept pairs fail diagonality; each contributes the same two parity
    # conditions, one per off-diagonal cell
    assert len(system.constraints) == 4
    assert {(c.variables, c.parity) for c in system.constraints} == {
        ((0, 3, 4, 7), 1), ((1, 2, 5, 6), 1)}
    assert sorted({c.kept for c in system.constraints}) == [(1, 4), (2, 3)]
    assert sorted({c.cell for c in system.constraints}) == [
        ("00", "11"), ("01", "10")]
    for c in system.constraints:
        assert len(set(c.variables)) >= 2
        assert c.parity in (0, 1)


def test_constraint_system_empty_iff_irredundant(fixtures_dir):
    cases = [(bush_oa(3, 2), 2), (bush_oa(2, 2), 1),
             (load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2),
             (load_oa(fixtures_dir, "oa_8_5_2_2"), 2)]
    for arr, k in cases:
        system = constraint_system(arr, k)
        assert (len(system.constraints) == 0) == bool(is_irredundant(arr, k))


def test_constraint_system_preconditions(fixtures_dir):
    # strength 1, but columns 1 and 3 agree, so not strength 2
    weak = OrthogonalArray(rows=((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0),
                                 (1, 1, 0, 1)), levels=2, strength=1)
    with pytest.raises(NotAnOAAtStrength):
        constraint_system(weak, 2)
    with pytest.raises(ParameterViolation):
        constraint_system(load_oa(fixtures_dir, "oa_8_4_2_3"), 3)  # k > N/2
    with pytest.raises(ParameterViolation):  # k > N/2 before strength 3
        constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2"), 3)
    dup = OrthogonalArray(rows=((0, 0), (0, 0), (1, 1), (1, 1)),
                          levels=2, strength=1)
    with pytest.raises(DuplicateRows):
        constraint_system(dup, 1)


@pytest.mark.parametrize("k", [0, -1, 3])
def test_sign_fixing_refuses_k_outside_one_to_half_n(monkeypatch, k):
    # one check, before any kernel runs, with one message for both
    # functions: k = 0 no longer runs the whole repair (and an empty
    # constraint system) to fail in the postcondition
    array = bush_oa(3, 2)
    monkeypatch.setattr(kuniform.phases, "_strength", None)
    monkeypatch.setattr(kuniform.phases, "_subset_cells", None)
    messages = set()
    for call in (constraint_system, fix_state):
        with pytest.raises(ParameterViolation) as caught:
            call(array, k)
        messages.add(str(caught.value))
    assert messages == {
        f"sign fixing requires 1 <= k <= N/2, got k={k}, N=4"}


def test_constraint_system_odd_cell_count_is_rejected():
    with pytest.raises(OddContributions):
        constraint_system(full_factorial(3, 2), 1)


def test_constraint_system_high_multiplicity_is_rejected():
    with pytest.raises(UnsupportedMultiplicity):
        constraint_system(full_factorial(2, 4, strength=4), 1)


# ---------------------------------------------------------------------------
# GF(2) solving
# ---------------------------------------------------------------------------

def test_solve_signs_canonical_solution(fixtures_dir):
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    solution = solve_signs(system)
    assert solution.assignment == (0, 1, 0, 1, 0, 0, 0, 0)
    assert solution.assignment[0] == 0  # gauge
    assert solution.phases == (1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0)
    assert system.satisfied_by(solution.assignment)


def test_solve_signs_alternative_published_assignment(fixtures_dir):
    # the historically quoted answer flips the last two rows instead; it is
    # accepted by substitution even though the solver's canonical answer
    # differs
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    assert system.satisfied_by([0, 0, 0, 0, 0, 0, 1, 1])
    assert not system.satisfied_by([0, 0, 0, 0, 0, 0, 0, 1])


def test_solve_signs_global_flip_gauge(fixtures_dir):
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    bits = solve_signs(system).assignment
    assert system.satisfied_by([1 - b for b in bits])


def test_solve_signs_empty_system_is_all_zero():
    system = constraint_system(bush_oa(3, 2), 2)
    assert not system.constraints
    assert solve_signs(system).assignment == (0,) * 9


def test_solve_signs_two_variable_pin():
    system = SignConstraintSystem(2, (
        SignConstraint((0, 1), 1, (0,), ("0", "1")),))
    assert solve_signs(system).assignment == (0, 1)


def test_solve_signs_detects_contradiction():
    system = SignConstraintSystem(3, (
        SignConstraint((0, 1), 1, (0,), ("0", "1")),
        SignConstraint((0, 1), 0, (1,), ("0", "1")),
    ))
    result = solve_signs(system)
    assert result is Infeasible
    assert not result
    assert repr(result) == "Infeasible"


def test_solve_signs_rejects_bad_parity_and_repeated_variables():
    # caller errors, not internal faults (PostconditionFailed)
    bad_parity = SignConstraintSystem(3, (
        SignConstraint((0, 1), 3, (0,), ("0", "1")),))
    with pytest.raises(ParameterViolation):
        solve_signs(bad_parity)
    repeated = SignConstraintSystem(3, (
        SignConstraint((1, 1), 1, (0,), ("0", "1")),))
    with pytest.raises(ParameterViolation):
        solve_signs(repeated)


def test_satisfied_by_accepts_bitmask_and_checks_length(fixtures_dir):
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    # assignment (0,1,0,1,0,0,0,0) encoded little-endian: bits 1 and 3
    assert system.satisfied_by(0b1010)
    with pytest.raises(ParameterViolation):
        system.satisfied_by([0, 1])


def test_satisfied_by_rejects_out_of_range_bitmasks():
    system = SignConstraintSystem(4, (
        SignConstraint((0, 1), 1, (0,), ("0", "1")),))
    assert system.satisfied_by(0b10)
    assert system.satisfied_by([0, 1, 0, 0])
    for bits in (0b10 | 1 << 40, -2, 1 << 4):
        with pytest.raises(ParameterViolation):
            system.satisfied_by(bits)
    with pytest.raises(ParameterViolation):
        system.satisfied_by([0, 1, 0])


FOUR_VARIABLES = SignConstraintSystem(4, (
    SignConstraint((0, 1), 1, (0,), ("0", "1")),))


@pytest.mark.parametrize("bits", [np.int64(2), np.uint8(2), np.int32(6)])
def test_satisfied_by_reads_numpy_integer_bitmasks(bits):
    assert FOUR_VARIABLES.satisfied_by(bits)
    assert not FOUR_VARIABLES.satisfied_by(type(bits)(3))
    with pytest.raises(ParameterViolation):
        FOUR_VARIABLES.satisfied_by(type(bits)(16))


@pytest.mark.parametrize("bits", [[0, 1, 0, 5], [0, 1, 0, -1], [0, 1, 0, 2],
                                  [0, 0.5, 0, 0], ["0", "1", "0", "0"]])
def test_satisfied_by_refuses_entries_other_than_zero_and_one(bits):
    # [0, 1, 0, 5] used to be read by its low bits, as [0, 1, 0, 1]
    with pytest.raises(ParameterViolation):
        FOUR_VARIABLES.satisfied_by(bits)


@pytest.mark.parametrize("bits", [True, False, np.True_, 2.0, None])
def test_satisfied_by_refuses_bools_and_other_scalars(bits):
    with pytest.raises(ParameterViolation):
        FOUR_VARIABLES.satisfied_by(bits)


# ---------------------------------------------------------------------------
# end-to-end state repair
# ---------------------------------------------------------------------------

def test_fix_state_five_qubit_catalog(fixtures_dir):
    state = fix_state(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    assert write_ket(state).strip() == (
        "+|00011> +|00101> -|01010> +|01100> "
        "+|10000> +|10110> -|11001> +|11111>")
    assert uniformity(state, 2).certified


def test_fix_state_of_irredundant_array_is_all_positive():
    state = fix_state(bush_oa(3, 2), 2)
    assert all(p == 1.0 for p in state.phases)
    assert uniformity(state, 2).certified


def test_fix_state_second_five_qubit_catalog_soundness(fixtures_dir):
    state = fix_state(load_oa(fixtures_dir, "oa_8_5_2_2"), 2)
    if state:  # feasibility itself is not pinned, soundness is
        assert uniformity(state, 2).certified
        assert write_ket(state).strip() == (
            "+|00000> +|00101> -|01010> +|01111> "
            "-|10011> +|10110> +|11001> +|11100>")


def test_fix_state_odd_contributions_is_infeasible():
    assert fix_state(full_factorial(3, 2), 1) is Infeasible


def test_fix_state_exhaustive_fallback_small():
    state = fix_state(full_factorial(2, 4, strength=4), 1)
    assert state
    assert uniformity(state, 1).certified
    assert write_ket(state).strip() == (
        "+|0000> -|0001> -|0010> +|0011> -|0100> +|0101> +|0110> -|0111> "
        "+|1000> +|1001> +|1010> +|1011> +|1100> +|1101> +|1110> +|1111>")


def test_fix_state_exhaustive_fallback_too_big():
    with pytest.raises(Unsupported):
        fix_state(full_factorial(2, 5, strength=5), 1)


def test_failed_postconditions_raise_library_errors(fixtures_dir, monkeypatch):
    # explicit checks, not asserts, so they hold under python -O
    array = load_oa(fixtures_dir, "oa_8_5_2_2_signfix")
    monkeypatch.setattr(kuniform.phases, "_certifies",
                        lambda state, k, tol, census: (False, census))
    with pytest.raises(PostconditionFailed):
        fix_state(array, 2)
    monkeypatch.setattr(SignConstraintSystem, "satisfied_by",
                        lambda self, bits: False)
    with pytest.raises(PostconditionFailed):
        solve_signs(constraint_system(array, 2))


def test_fix_state_walks_the_cells_once(monkeypatch):
    # the exhaustive fallback searches the cells the constraint step listed
    calls = []
    real = kuniform.phases._subset_cells

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kuniform.phases, "_subset_cells", counted)
    state = fix_state(full_factorial(2, 4, strength=4), 1)
    assert state and uniformity(state, 1).certified
    assert len(calls) == 1


def test_fix_state_certifies_with_the_strength_census(monkeypatch,
                                                      fixtures_dir):
    # the strength check's pair census, its pairs renumbered into the
    # state's word order, certifies the repaired state: one census, not two
    array = load_oa(fixtures_dir, "oa_8_5_2_2_signfix")
    # rows out of word order: the renumbered pairs still find every cell
    shuffled = permute_rows(array, [5, 2, 7, 0, 6, 3, 1, 4])
    calls = []
    real = kuniform.oa._pair_census

    def spy(grid, reach):
        calls.append(reach)
        return real(grid, reach)

    monkeypatch.setattr(kuniform.oa, "_pair_census", spy)
    state = fix_state(array, 2)
    assert calls == [2]
    assert uniformity(state, 2).certified
    calls.clear()
    state = fix_state(shuffled, 2)
    assert calls == [2]
    assert state and uniformity(state, 2).certified


# ---------------------------------------------------------------------------
# mixed cell sets: an odd cell beside a wide one
# ---------------------------------------------------------------------------

def mixed_array():
    """Six columns of the order-24 Hadamard array whose cells at k = 2
    include one fed by a single pair and one fed by six."""
    base = hadamard_to_oa(hadamard(24)).grid
    return OrthogonalArray(base[:, [1, 9, 11, 17, 18, 21]], 2)


def test_an_odd_cell_is_infeasible_beside_a_wide_cell(monkeypatch):
    array = mixed_array()
    counts = {len(pairs) for _, _, pairs in string_key_cells(array.rows, 2)}
    assert {1, 6} <= counts and array.runs > 21

    def refuse(*args):
        raise AssertionError("no search: the odd cell decides")

    monkeypatch.setattr(kuniform.phases, "_exhaustive_search", refuse)
    assert fix_state(array, 2) is Infeasible
    # constraint_system still names the first offending cell
    with pytest.raises(UnsupportedMultiplicity, match="6 row pairs"):
        constraint_system(array, 2)


HADAMARD_GRIDS = {}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([8, 12, 16, 20, 24]), st.sampled_from([1, 2]),
       st.integers(0, 2 ** 32 - 1))
@example(24, 2, 28)
@example(24, 2, 32)
def test_fix_state_follows_the_cell_counts(order, k, seed):
    # the answer read off the oracle's pair counts: an odd count is
    # Infeasible; else a count >= 4 beyond 21 rows is Unsupported; any
    # returned state certifies.  Seeds 28 and 32 draw mixed cell sets (an
    # odd cell and a wide one) from the order-24 array at k = 2
    if order not in HADAMARD_GRIDS:
        HADAMARD_GRIDS[order] = hadamard_to_oa(hadamard(order)).grid
    rng = random.Random(seed)
    m = rng.randint(2 * k, order - 1)
    cols = sorted(rng.sample(range(order - 1), m))
    array = OrthogonalArray(HADAMARD_GRIDS[order][:, cols], 2)
    rows = array.rows
    if len(set(rows)) < len(rows):
        with pytest.raises(DuplicateRows):
            fix_state(array, k)
        return
    counts = [len(pairs) for _, _, pairs in string_key_cells(rows, k)]
    odd = any(c % 2 for c in counts)
    if not odd and any(c >= 4 for c in counts) and array.runs > 21:
        with pytest.raises(Unsupported):
            fix_state(array, k)
        return
    result = fix_state(array, k)
    if odd:
        assert result is Infeasible
    elif result is not Infeasible:
        assert uniformity(result, k).certified


# ---------------------------------------------------------------------------
# exhaustive search against a brute force
# ---------------------------------------------------------------------------

def distinct_rows(r):
    """r distinct binary rows of five columns, no declared strength."""
    return OrthogonalArray(
        tuple(tuple(int(b) for b in format(i, "05b")) for i in range(r)), 2)


def cancels(mask, pairs):
    """The pairs' +/-1 terms sum to zero under the sign bitmask."""
    return sum(-1 if ((mask >> i) ^ (mask >> j)) & 1 else 1
               for i, j in pairs) == 0


def smallest_signs(r, cells, stop=None):
    """The smallest even bitmask below `stop` (default 2**r) cancelling
    every cell, by trying each in turn; None when there is none."""
    return next((mask for mask in range(0, stop or 1 << r, 2)
                 if all(cancels(mask, pairs) for pairs in cells)), None)


def search(array, cells):
    """The exhaustive search over `cells` (lists of pairs), as a state."""
    i, j = zip(*(pair for pairs in cells for pair in pairs))
    none = np.zeros(0, dtype=np.intp)
    table = kuniform.phases._CellTable(
        none, none, none, np.array([len(pairs) for pairs in cells]),
        np.array(i), np.array(j))
    result = kuniform.phases._exhaustive_search(array.runs, table)
    return (result if result is Infeasible
            else state_from_oa(array, result.phases))


def ket(array, mask):
    return write_ket(state_from_oa(
        array, [-1.0 if (mask >> i) & 1 else 1.0 for i in range(array.runs)]))


def disjoint_pairs(order, size):
    """The first `size` pairs (i < j) of consecutive rows in `order`."""
    return sorted(tuple(sorted(order[2 * t:2 * t + 2])) for t in range(size))


def random_cell(rng, r, size):
    return disjoint_pairs(rng.sample(range(r), 2 * size), size)


@st.composite
def sign_cells(draw):
    """r <= 10 rows and 1-6 cells of 1-5 disjoint pairs, odd cells too."""
    r = draw(st.integers(2, 10))
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(range(r)))
        cells.append(disjoint_pairs(order, draw(st.integers(1, min(5, r // 2)))))
    return r, cells


@settings(max_examples=300, deadline=None)
@given(sign_cells())
def test_exhaustive_search_matches_brute_force(case):
    r, cells = case
    array = distinct_rows(r)
    mask = smallest_signs(r, cells)
    result = search(array, cells)
    if mask is None:
        assert result is Infeasible
    else:
        assert write_ket(result) == ket(array, mask)


@pytest.mark.parametrize("seed", range(3))
def test_exhaustive_search_walks_chunks_in_order(seed):
    # 14 rows: chunks of 2**10, 2**11, 2**12 and 2**10 candidates; random
    # cells of two and four pairs that one sign vector in the third chunk
    # cancels, so the search passes two chunk boundaries
    r, target = 14, (1 << 13) | (1 << 12) | (1 << 5)
    rng = random.Random(seed)
    cells = []
    while len(cells) < 30:
        cell = random_cell(rng, r, rng.choice((2, 4)))
        if cancels(target, cell):
            cells.append(cell)
    mask = smallest_signs(r, cells)
    assert mask // 2 >= (1 << 10) + (1 << 11)
    array = distinct_rows(r)
    assert write_ket(search(array, cells)) == ket(array, mask)


def traced_search(array, cells):
    tracemalloc.start()
    try:
        result = search(array, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_exhaustive_search_infeasible_at_21_rows_holds_one_chunk():
    # wide cells, then three two-pair cells whose parity constraints sum to
    # 0 = 1 (each of rows 0-5 appears twice): all 2**20 vectors are swept
    rng = random.Random(0)
    cells = [random_cell(rng, 21, 4) for _ in range(12)]
    cells += [[(0, 1), (2, 3)], [(0, 4), (1, 5)], [(2, 4), (3, 5)]]
    result, peak = traced_search(distinct_rows(21), cells)
    assert result is Infeasible
    assert peak < 4e6


def test_exhaustive_search_feasible_at_21_rows_stops_early():
    # four-pair cells that a sign vector below 2**10 cancels: the search
    # ends in its first chunk
    target = (1 << 9) | (1 << 4) | (1 << 1)
    rng = random.Random(1)
    cells = []
    while len(cells) < 12:
        cell = random_cell(rng, 21, 4)
        if cancels(target, cell):
            cells.append(cell)
    mask = smallest_signs(21, cells, stop=1 << 10)
    assert mask is not None
    array = distinct_rows(21)
    result, peak = traced_search(array, cells)
    assert write_ket(result) == ket(array, mask)
    assert peak < 1e6
