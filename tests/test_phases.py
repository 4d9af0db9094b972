"""GF(2) sign fixing: constraint extraction, solving, and state repair."""

import itertools

import pytest

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


def test_satisfied_by_accepts_bitmask_and_checks_length(fixtures_dir):
    system = constraint_system(load_oa(fixtures_dir, "oa_8_5_2_2_signfix"), 2)
    # assignment (0,1,0,1,0,0,0,0) encoded little-endian: bits 1 and 3
    assert system.satisfied_by(0b1010)
    with pytest.raises(ParameterViolation):
        system.satisfied_by([0, 1])


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
