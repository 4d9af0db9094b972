"""Hermitian eigensolver tests against the numpy oracle."""

import numpy as np
import pytest

from kuniform import ParameterViolation, ShapeMismatch, jacobi_eigvalsh, rank_by_eigenvalues


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 16])
def test_agrees_with_numpy_on_random_hermitian(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        a = random_hermitian(n, rng)
        got = jacobi_eigvalsh(a)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - want)) < 1e-10


def test_agrees_with_numpy_on_real_symmetric():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12))
    a = (a + a.T) / 2
    got = jacobi_eigvalsh(a)
    want = np.linalg.eigvalsh(a)
    assert np.max(np.abs(got - want)) < 1e-10


def test_large_matrix():
    rng = np.random.default_rng(64)
    a = random_hermitian(64, rng)
    got = jacobi_eigvalsh(a)
    want = np.linalg.eigvalsh(a)
    assert np.max(np.abs(got - want)) < 1e-9


def test_diagonal_matrix_is_returned_sorted():
    got = jacobi_eigvalsh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(got, [-1.0, 2.0, 3.0], atol=1e-14)


def test_known_two_by_two():
    a = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(jacobi_eigvalsh(a), [0.0, 1.0], atol=1e-12)


def test_block_pattern_spectrum():
    quarter = 0.25
    a = np.array([
        [quarter, 0, 0, quarter],
        [0, quarter, quarter, 0],
        [0, quarter, quarter, 0],
        [quarter, 0, 0, quarter],
    ])
    assert np.allclose(jacobi_eigvalsh(a), [0, 0, 0.5, 0.5], atol=1e-12)


def test_rejects_non_square():
    for shape in [(3,), (2, 3), (2, 2, 3), (4, 3, 2)]:
        with pytest.raises(ShapeMismatch):
            jacobi_eigvalsh(np.zeros(shape))


def test_rejects_non_hermitian():
    with pytest.raises(ParameterViolation):
        jacobi_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rank_by_eigenvalues():
    assert rank_by_eigenvalues(np.eye(4) / 4) == 4
    assert rank_by_eigenvalues(np.diag([0.5, 0.5, 0.0, 0.0])) == 2
    proj = np.zeros((3, 3))
    proj[0, 0] = 1.0
    assert rank_by_eigenvalues(proj) == 1


def test_stack_equals_each_matrix_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 8, 13):
        stack = np.array([random_hermitian(n, rng) for _ in range(6)])
        got = jacobi_eigvalsh(stack)
        assert got.shape == (6, n)
        for values, matrix in zip(got, stack):
            assert ([v.hex() for v in values.tolist()]
                    == [v.hex() for v in jacobi_eigvalsh(matrix).tolist()])
    nested = np.array([random_hermitian(4, rng) for _ in range(6)])
    assert np.array_equal(jacobi_eigvalsh(nested.reshape(2, 3, 4, 4)),
                          jacobi_eigvalsh(nested).reshape(2, 3, 4))


def test_stack_rejects_one_non_hermitian_matrix():
    rng = np.random.default_rng(6)
    stack = np.array([random_hermitian(3, rng) for _ in range(4)])
    stack[2, 0, 1] += 1.0
    with pytest.raises(ParameterViolation):
        jacobi_eigvalsh(stack)


def test_stack_checks_each_matrix_against_its_own_scale():
    # the skew 1e-7 is small beside the first matrix's entries but not
    # beside the second's, so the stack is refused
    large = np.diag([1e6, 1e6])
    small = np.array([[1e-3, 1e-7], [0.0, 1e-3]])
    jacobi_eigvalsh(np.stack([large, large + np.array([[0, 1e-7], [0, 0]])]))
    with pytest.raises(ParameterViolation):
        jacobi_eigvalsh(np.stack([large, small]))
