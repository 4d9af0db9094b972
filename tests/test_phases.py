"""GF(2) sign fixing: constraint extraction, solving, and state repair."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
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
    is_irredundant,
    parse_oa_file,
    solve_signs,
    state_from_oa,
    uniformity,
    write_ket,
)


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
    with pytest.raises(NotAnOAAtStrength):
        constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2"), 3)
    with pytest.raises(ParameterViolation):
        constraint_system(load_oa(fixtures_dir, "oa_8_4_2_3"), 3)  # k > N/2
    dup = OrthogonalArray(rows=((0, 0), (0, 0), (1, 1), (1, 1)),
                          levels=2, strength=1)
    with pytest.raises(DuplicateRows):
        constraint_system(dup, 1)


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
    monkeypatch.setattr(kuniform.phases, "_is_k_uniform", lambda state, k: False)
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
    return kuniform.phases._exhaustive_search(
        array, [((), ("", ""), pairs) for pairs in cells])


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
