"""Oracle checks: DFT conventions, shift matrices, solves, state helpers."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vqtoeplitz.linalg import (
    DimensionMismatch,
    SingularMatrix,
    ZeroVector,
    basis_state,
    build_unit_circulant,
    dense_solve,
    dft_matrix,
    fidelity,
    normalize,
    num_qubits,
    random_state,
)
from vqtoeplitz.poisson import PoissonProblem, build_poisson, prepare_b


def tridiag(n):
    return 2 * np.eye(n) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)


def test_dense_solve_tridiagonal_ones():
    x = dense_solve(tridiag(4), np.ones(4))
    np.testing.assert_allclose(x, [2.0, 3.0, 3.0, 2.0], atol=1e-12)


def test_dense_solve_identity():
    b = np.array([0.3, -1.2, 4.0])
    np.testing.assert_allclose(dense_solve(np.eye(3), b), b, atol=1e-14)


def test_dense_solve_unified_corners_reduce_to_dirichlet():
    # zero corner perturbations leave the plain tridiagonal matrix
    a = tridiag(4)
    a[0, 0] -= 0.0
    a[3, 3] -= 0.0
    np.testing.assert_allclose(
        dense_solve(a, np.ones(4)), dense_solve(tridiag(4), np.ones(4)), atol=1e-14
    )


def test_dense_solve_singular():
    with pytest.raises(SingularMatrix):
        dense_solve(np.ones((3, 3)), np.ones(3))


def test_dense_solve_shape_errors():
    with pytest.raises(DimensionMismatch):
        dense_solve(np.ones((3, 2)), np.ones(3))
    with pytest.raises(DimensionMismatch):
        dense_solve(np.eye(3), np.ones(4))


def test_dense_solve_residual_property():
    # 1000 random well-conditioned instances, n <= 64
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = dense_solve(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-10 * np.max(np.abs(b))


def test_dense_solve_real_system_peak_memory():
    # every CLI solve pairs a real matrix with a real right-hand side: the
    # solve stays real, so it holds the matrix and one LU copy
    problem = PoissonProblem(2, 4)
    a, b = build_poisson(problem), prepare_b(problem)
    reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
    tracemalloc.start()
    try:
        x = dense_solve(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.dtype == np.float64
    assert np.max(np.abs(x - reference)) <= 1e-12
    assert peak < 1.5 * a.nbytes


def test_dft_small_cases():
    np.testing.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(dft_matrix(2), h, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16, 64])
def test_dft_unitarity(n):
    f = dft_matrix(n)
    assert np.max(np.abs(f.conj().T @ f - np.eye(n))) <= 1e-12


def test_dft_sign_convention_diagonalizes_downshift():
    # With omega = exp(+2i*pi/n), F^dag D F = L (and F D F^dag does not).
    n = 4
    f = dft_matrix(n)
    d = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    ell = build_unit_circulant(n)
    assert np.max(np.abs(f.conj().T @ d @ f - ell)) <= 1e-12
    assert np.max(np.abs(f @ d @ f.conj().T - ell)) > 0.5


def test_unit_circulant_entries():
    ell = build_unit_circulant(3)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    np.testing.assert_array_equal(ell, expected)


def test_unit_circulant_inverse_and_cycle():
    for n in (2, 4, 8):
        ell = build_unit_circulant(n)
        np.testing.assert_array_equal(ell @ ell.T, np.eye(n))
        np.testing.assert_array_equal(np.linalg.matrix_power(ell, n), np.eye(n))


def test_fidelity_basic():
    u = normalize(np.array([1.0, 1.0]))
    assert fidelity(u, u) == pytest.approx(1.0)
    assert fidelity(basis_state(1, 0), basis_state(1, 1)) == pytest.approx(0.0)
    assert fidelity(basis_state(1, 0), u) == pytest.approx(1 / np.sqrt(2))


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(5)
    u = random_state(3, rng)
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        assert fidelity(u, np.exp(1j * phi) * u) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(basis_state(1, 0), basis_state(2, 0))


def test_normalize_cases():
    np.testing.assert_allclose(normalize([2.0, 0, 0, 0]), basis_state(2, 0), atol=1e-15)
    np.testing.assert_allclose(normalize(np.ones(4)), np.full(4, 0.5), atol=1e-15)
    # the norm of these underflows or overflows; the scaled norm does not
    for scale in (1e-200, 1e200):
        np.testing.assert_allclose(normalize(scale * np.ones(4)), np.full(4, 0.5), atol=1e-15)
        np.testing.assert_allclose(normalize([0.0, -scale]), [0.0, -1.0], atol=1e-15)


def test_normalize_matvec_example():
    # tridiagonal [-1, 2, -1] times the ones vector is (1, 0, 0, 1)
    image = tridiag(4) @ np.ones(4)
    np.testing.assert_allclose(image, [1, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(
        normalize(image), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize(np.zeros(4))


def test_num_qubits():
    assert num_qubits(np.zeros(8)) == 3
    with pytest.raises(DimensionMismatch):
        num_qubits(np.zeros(6))
