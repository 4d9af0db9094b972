"""Finite-field arithmetic tests."""

import itertools

import pytest

from kuniform import (
    DivisionByZero,
    FieldMismatch,
    NotPrimePower,
    ParameterViolation,
    add,
    elements,
    field_new,
    inv,
    mul,
)
from kuniform.gf import MAX_ORDER

from oracles import sympy_irreducible

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def test_field_new_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12, 15, 100):
        with pytest.raises(NotPrimePower):
            field_new(q)


def test_field_new_rejects_oversized_order():
    with pytest.raises(ParameterViolation):
        field_new(2 ** 17)
    assert field_new(MAX_ORDER).q == MAX_ORDER


def test_field_identity_is_cached():
    assert field_new(9) is field_new(9)


def test_eager_tables_equal_digit_arithmetic():
    primes = [p for p in range(2, 65) if all(p % t for t in range(2, p))]
    orders = [q for q in range(2, 65) if sum(q % p == 0 for p in primes) == 1]
    assert len(orders) == 27
    for q in orders:
        f = field_new(q)
        for a in range(q):
            assert f.neg_code(a) == f._neg_raw(a)
            assert [f.add_codes(a, b) for b in range(q)] == [
                f._add_raw(a, b) for b in range(q)]


def test_elements_enumerate_codes_in_order():
    for q in SMALL_ORDERS:
        assert [e.value for e in elements(field_new(q))] == list(range(q))


def test_modulus_is_smallest_irreducible_in_low_degree_first_order():
    # the stored tuple lists coefficients from the constant term up,
    # including the leading 1 of the monic modulus
    assert field_new(4).modulus == (1, 1, 1)       # x^2 + x + 1
    assert field_new(8).modulus == (1, 0, 1, 1)    # x^3 + x^2 + 1
    assert field_new(9).modulus == (1, 0, 1)       # x^2 + 1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 2)])
def test_modulus_matches_independent_irreducibility_oracle(p, m):
    field = field_new(p ** m)
    low = field.modulus[:-1]
    assert field.modulus[-1] == 1
    assert sympy_irreducible(list(field.modulus), p)
    # no candidate earlier in the enumeration order is irreducible
    for cand in itertools.product(range(p), repeat=m):
        if cand == low:
            break
        assert not sympy_irreducible(list(cand) + [1], p)


def test_gf4_multiplication_examples():
    f = field_new(4)
    two, three = f.element(2), f.element(3)
    assert mul(two, two).value == 3
    assert mul(two, three).value == 1


def test_gf3_addition_table():
    f = field_new(3)
    table = [[add(f.element(a), f.element(b)).value for b in range(3)]
             for a in range(3)]
    assert table == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_gf5_inverses():
    f = field_new(5)
    assert [inv(f.element(a)).value for a in (1, 2, 3, 4)] == [1, 3, 2, 4]


def test_inverse_of_zero_raises():
    for q in (2, 4, 9):
        with pytest.raises(DivisionByZero):
            inv(field_new(q).element(0))


def test_cross_field_operations_raise():
    a = field_new(4).element(1)
    b = field_new(8).element(1)
    with pytest.raises(FieldMismatch):
        add(a, b)
    with pytest.raises(FieldMismatch):
        mul(a, b)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms(q):
    field = field_new(q)
    elems = list(elements(field))
    zero, one = elems[0], elems[1]
    for a in elems:
        assert (a + zero) == a
        assert (a * one) == a
        assert (a * zero) == zero
        assert (a + (-a)) == zero
        if a.value != 0:
            assert (a * a.inverse()) == one
    for a in elems:
        for b in elems:
            assert (a + b) == (b + a)
            assert (a * b) == (b * a)
    sample = elems if q <= 9 else elems[:8]
    for a in sample:
        for b in sample:
            for c in sample:
                assert ((a + b) + c) == (a + (b + c))
                assert ((a * b) * c) == (a * (b * c))
                assert (a * (b + c)) == (a * b + a * c)


@pytest.mark.parametrize("q,p", [(4, 2), (8, 2), (9, 3), (27, 3), (25, 5)])
def test_frobenius_endomorphism(q, p):
    field = field_new(q)
    for a in elements(field):
        for b in elements(field):
            lhs = field.pow_code(field.add_codes(a.value, b.value), p)
            rhs = field.add_codes(field.pow_code(a.value, p),
                                  field.pow_code(b.value, p))
            assert lhs == rhs


def test_prime_field_is_plain_modular_arithmetic():
    f = field_new(7)
    for a in range(7):
        for b in range(7):
            assert f.add_codes(a, b) == (a + b) % 7
            assert f.mul_codes(a, b) == (a * b) % 7


def test_nonzero_elements_form_a_cyclic_group():
    for q in (4, 8, 9):
        field = field_new(q)
        orders = set()
        for a in range(1, q):
            x, n = a, 1
            while x != 1:
                x = field.mul_codes(x, a)
                n += 1
            orders.add(n)
            assert (q - 1) % n == 0
        assert (q - 1) in orders
