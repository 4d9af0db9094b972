"""Hadamard matrices and orthogonal-array families."""

import numpy as np
import pytest

from kuniform import (
    BadOrder,
    HadamardMatrix,
    NotNormalized,
    NotPowerOfTwo,
    NotPrimePower,
    ParameterViolation,
    Unsupported,
    bush_extended_oa,
    bush_oa,
    choose_hadamard_order,
    hadamard,
    hadamard_to_oa,
    hadamard_two_uniform_state,
    is_irredundant,
    kron,
    max_strength,
    normalize,
    oa_index,
    paley_type1,
    parse_ket,
    parse_oa_file,
    rao_oa,
    sylvester,
    uniformity,
    verify_strength,
)

import oracles


def assert_valid(h: HadamardMatrix):
    a = h.as_array()
    assert np.array_equal(a @ a.T, h.order * np.eye(h.order, dtype=np.int64))


# ---------------------------------------------------------------------------
# Hadamard matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 6))
def test_sylvester_orders_are_valid_and_normalized(m):
    h = sylvester(m)
    assert h.order == 2 ** m
    assert h.is_normalized
    assert_valid(h)


@pytest.mark.parametrize("q", [3, 7, 11, 19])
def test_paley_orders_are_valid_and_normalized(q):
    h = paley_type1(q)
    assert h.order == q + 1
    assert h.is_normalized
    assert_valid(h)


def test_paley_rejects_wrong_residue_or_composite():
    for q in (2, 5, 9, 13, 15):
        with pytest.raises(BadOrder):
            paley_type1(q)


def test_kron_multiplies_orders():
    h = kron(paley_type1(11), sylvester(2))
    assert h.order == 48
    assert_valid(h)


def test_normalize_restores_all_plus_first_row_and_column():
    base = sylvester(3).as_array().copy()
    base[2, :] *= -1
    base[:, 5] *= -1
    fixed = normalize(HadamardMatrix(8, tuple(map(tuple, base))))
    assert fixed.is_normalized
    assert_valid(fixed)


@pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 24, 32, 48])
def test_hadamard_router_orders(order):
    h = hadamard(order)
    assert h.order == order
    assert_valid(h)
    assert h.is_normalized


def test_hadamard_router_rejects_unbuildable_orders():
    for order in (0, 3, 6, 52):
        with pytest.raises(BadOrder):
            hadamard(order)


def test_hadamard_matrix_invariants():
    with pytest.raises(ParameterViolation):
        HadamardMatrix(2, ((1, 1), (1, 1)))
    with pytest.raises(ParameterViolation):
        HadamardMatrix(2, ((1, 2), (1, -1)))
    with pytest.raises(ParameterViolation):
        HadamardMatrix(3, ((1, 1), (1, -1)))


# ---------------------------------------------------------------------------
# Hadamard -> OA
# ---------------------------------------------------------------------------

def test_hadamard_to_oa_shape_and_strength():
    for order in (4, 8, 12, 16):
        a = hadamard_to_oa(hadamard(order))
        assert (a.runs, a.factors, a.levels, a.strength) == (order, order - 1, 2, 2)
        assert verify_strength(a, 2)


def test_hadamard_to_oa_requires_normalized_input():
    flipped = sylvester(3).as_array().copy()
    flipped[0, :] *= -1
    with pytest.raises(NotNormalized):
        hadamard_to_oa(HadamardMatrix(8, tuple(map(tuple, flipped))))
    with pytest.raises(ParameterViolation):
        hadamard_to_oa(sylvester(1))


def test_hadamard_to_oa_irredundancy_boundary():
    # with all kappa-1 columns kept, distinct matrix rows share exactly
    # kappa/2 - 1 column values, so the array is irredundant at k=2 ...
    full = hadamard_to_oa(hadamard(8))
    assert is_irredundant(full, 2).ok
    # ... and it stays irredundant down to N = kappa/2 + 2 kept columns
    from kuniform import remove_columns
    assert is_irredundant(remove_columns(full, [6]), 2).ok
    # at N = kappa/2 + 1 = 5 some removed pair collides
    assert not is_irredundant(remove_columns(full, [5, 6]), 2).ok


# ---------------------------------------------------------------------------
# finite-field families
# ---------------------------------------------------------------------------

def test_bush_small_binary_case_is_the_even_parity_array(fixtures_dir):
    a = bush_oa(2, 2)
    assert a.rows == parse_oa_file((fixtures_dir / "oa_4_3_2_2.oa").read_text()).rows


def test_bush_qutrit_rows_exactly():
    assert bush_oa(3, 2).rows == (
        (0, 0, 0, 0), (0, 1, 1, 1), (0, 2, 2, 2),
        (1, 0, 1, 2), (1, 1, 2, 0), (1, 2, 0, 1),
        (2, 0, 2, 1), (2, 1, 0, 2), (2, 2, 1, 0),
    )


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (4, 3), (5, 2),
                                 (7, 2), (8, 2), (9, 2), (3, 3), (5, 3)])
def test_bush_parameters_and_index_unity(d, k):
    a = bush_oa(d, k)
    assert (a.runs, a.factors, a.levels, a.strength) == (d ** k, d + 1, d, k)
    assert oa_index(a, k) == 1


def test_bush_strength_one_gives_constant_rows():
    a = bush_oa(3, 1)
    assert a.rows == ((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2))


def test_bush_errors():
    with pytest.raises(ParameterViolation):
        bush_oa(2, 4)
    with pytest.raises(ParameterViolation):
        bush_oa(3, 0)
    with pytest.raises(NotPrimePower):
        bush_oa(6, 2)


def test_bush_extended_binary_rows_exactly(fixtures_dir):
    a = bush_extended_oa(2)
    fixture = parse_oa_file((fixtures_dir / "oa_8_4_2_3.oa").read_text())
    assert sorted(a.rows) == sorted(fixture.rows)
    assert a.rows == ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
                      (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1))


def test_bush_extended_four_levels():
    a = bush_extended_oa(4)
    assert (a.runs, a.factors, a.levels, a.strength) == (64, 6, 4, 3)
    assert oa_index(a, 3) == 1
    assert is_irredundant(a, 3).ok


def test_bush_extended_errors():
    for d in (3, 5, 6):
        with pytest.raises(NotPowerOfTwo):
            bush_extended_oa(d)


def test_rao_family_rows_exactly():
    assert rao_oa(3, 2).rows == (
        (0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 2, 2),
        (0, 1, 1, 2), (1, 1, 2, 0), (2, 1, 0, 1),
        (0, 2, 2, 1), (1, 2, 0, 2), (2, 2, 1, 0),
    )


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (4, 2), (5, 2), (7, 2), (9, 2)])
def test_rao_family_parameters(d, n):
    a = rao_oa(d, n)
    cols = (d ** n - 1) // (d - 1)
    assert (a.runs, a.factors, a.levels, a.strength) == (d ** n, cols, d, 2)
    assert verify_strength(a, 2)


def test_rao_family_errors():
    with pytest.raises(ParameterViolation):
        rao_oa(3, 1)
    with pytest.raises(NotPrimePower):
        rao_oa(6, 2)


# ---------------------------------------------------------------------------
# order chooser and the two-uniform pipeline
# ---------------------------------------------------------------------------

def test_choose_hadamard_order_table():
    expected = {6: 8, 7: 8, 8: 12, 9: 12, 10: 16, 11: 16, 12: 16, 13: 16,
                14: 16, 15: 16, 16: 24, 17: 24, 18: 32, 19: 32, 20: 32,
                21: 32, 22: 32, 23: 32, 24: 32, 25: 32, 26: 32, 27: 32,
                28: 32, 29: 32, 30: 32, 31: 32, 32: 48, 33: 48}
    assert {n: choose_hadamard_order(n) for n in expected} == expected


def test_choose_hadamard_order_window_invariant():
    # the chosen order always admits n columns and keeps the certification
    # window: kappa/2 + 2 <= n <= kappa - 1
    for n in range(6, 34):
        kappa = choose_hadamard_order(n)
        assert kappa // 2 + 2 <= n <= kappa - 1


def test_choose_hadamard_order_is_the_window_search():
    for n in range(6, 5001):
        assert choose_hadamard_order(n) == oracles.hadamard_order_by_windows(n)


def test_choose_hadamard_order_too_small():
    for n in (1, 5):
        with pytest.raises(Unsupported):
            choose_hadamard_order(n)


def test_two_uniform_state_term_counts():
    assert hadamard_two_uniform_state(6).term_count == 8
    assert hadamard_two_uniform_state(8).term_count == 12
    assert hadamard_two_uniform_state(10).term_count == 16


def test_two_uniform_state_certifies():
    for n in (6, 7, 8, 9, 10, 16):
        st = hadamard_two_uniform_state(n)
        assert st.qudits == n and st.levels == 2
        assert uniformity(st, 2).certified


def test_two_uniform_state_matches_small_fixture(fixtures_dir):
    got = hadamard_two_uniform_state(7)
    want = parse_ket((fixtures_dir / "hadamard8_n7.ket").read_text())
    assert got == want
