"""Banded Toeplitz machinery: shift-power sums, phase towers, matvec, Gram band."""

import numpy as np
import pytest

from vqtoeplitz.linalg import DimensionMismatch, build_unit_circulant, dft_matrix, random_state
from vqtoeplitz.poisson import PoissonProblem, build_poisson_1d
from vqtoeplitz.toeplitz import (
    NotBanded,
    ToeplitzSpec,
    band_autocorrelation,
    classical_toeplitz_matvec,
    corner_corrections,
    phase_spectrum,
    phase_spectrum_diagonal,
    toeplitz_to_dense,
)

TRIDIAG = {-1: -1.0, 0: 2.0, 1: -1.0}
SQUARED_BAND = {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}


def random_banded(n, rng, max_band=3):
    band = int(rng.integers(0, max_band + 1))
    coeffs = {l: float(rng.standard_normal()) for l in range(-band, band + 1)}
    coeffs[0] = coeffs.get(0, 0.0) + 1.0
    return ToeplitzSpec(n, coeffs)


def shift_sum(spec):
    """sum_l t_l L^l, L the cyclic down-shift on 2n points: T is its top-left block."""
    shift = build_unit_circulant(2 * spec.n)
    return sum(
        t * np.linalg.matrix_power(shift, l % (2 * spec.n)) for l, t in spec.coeffs.items()
    )


def test_dense_tridiagonal_matches_poisson_operator():
    spec = ToeplitzSpec(4, TRIDIAG)
    np.testing.assert_array_equal(
        toeplitz_to_dense(spec).real, build_poisson_1d(PoissonProblem(1, 2))
    )


def test_dense_scaled_identity():
    np.testing.assert_array_equal(toeplitz_to_dense(ToeplitzSpec(4, {0: 5.0})).real, 5 * np.eye(4))


def test_squared_band_matches_interior_of_square():
    n = 8
    a = toeplitz_to_dense(ToeplitzSpec(n, TRIDIAG)).real
    t2 = toeplitz_to_dense(ToeplitzSpec(n, SQUARED_BAND)).real
    square = a @ a
    np.testing.assert_array_equal(square[1:-1, :], t2[1:-1, :])
    # only the two corner diagonal entries differ
    diff = t2 - square
    assert diff[0, 0] == 1.0 and diff[n - 1, n - 1] == 1.0
    assert np.count_nonzero(diff) == 2


def test_spec_validation():
    with pytest.raises(NotBanded):
        ToeplitzSpec(4, {4: 1.0})
    with pytest.raises(NotBanded):
        ToeplitzSpec(256, {129: 1.0})  # polylog band guard: 2*(log2 256)^2 = 128
    assert ToeplitzSpec(4, {0: 0.0, 1: 2.0}).coeffs == {1: 2.0}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ToeplitzSpec(4, {0: 2.0, 1: bad})
    for bad in (complex(1.0, float("nan")), 1.0 + 1.0j, 2.0 + 0.0j, np.complex128(3.0)):
        with pytest.raises(ValueError, match="real"):
            ToeplitzSpec(4, {0: 2.0, 1: bad})
    coeffs = ToeplitzSpec(4, {0: 2, 1: np.float32(-1)}).coeffs
    assert all(type(t) is float for t in coeffs.values())


def test_embedding_first_column():
    np.testing.assert_array_equal(
        shift_sum(ToeplitzSpec(4, TRIDIAG))[:, 0], [2, -1, 0, 0, 0, 0, 0, -1]
    )


def test_embedding_identity_case():
    np.testing.assert_array_equal(shift_sum(ToeplitzSpec(4, {0: 3.5})), 3.5 * np.eye(8))


def test_embedding_block_structure():
    n = 4
    spec = ToeplitzSpec(n, TRIDIAG)
    dense = shift_sum(spec)
    t = toeplitz_to_dense(spec)
    np.testing.assert_array_equal(dense[:n, :n], t)
    np.testing.assert_array_equal(dense[n:, n:], t)
    np.testing.assert_array_equal(dense[:n, n:], dense[n:, :n])
    # wrap-around block for the tridiagonal band has -1 in two corners only
    b = dense[:n, n:]
    assert b[0, n - 1] == -1.0 and b[n - 1, 0] == -1.0
    assert np.count_nonzero(b) == 2


def test_embedding_exactness_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.choice([4, 8, 16]))
        spec = random_banded(n, rng)
        np.testing.assert_array_equal(shift_sum(spec)[:n, :n], toeplitz_to_dense(spec))


def test_expectation_identity_random_states():
    # on a zero-padded state the band's bracket is the sum of its shift-power brackets
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.choice([4, 8, 16]))
        spec = random_banded(n, rng)
        shift = build_unit_circulant(2 * n)
        psi = random_state(n.bit_length() - 1, rng)
        padded = np.concatenate([psi, np.zeros(n)])
        total = sum(
            t * (padded.conj() @ np.linalg.matrix_power(shift, l % (2 * n)) @ padded)
            for l, t in spec.coeffs.items()
        )
        assert abs(total - psi.conj() @ toeplitz_to_dense(spec) @ psi) <= 1e-10


def test_spectral_identity():
    # each L^l is F^dag diag(phase tower l) F, so the shift sum is too
    rng = np.random.default_rng(3)
    for n in (4, 8, 16):
        spec = random_banded(n, rng)
        f = dft_matrix(2 * n)
        diagonal = sum(
            t * phase_spectrum_diagonal(phase_spectrum(2 * n, l)) for l, t in spec.coeffs.items()
        )
        recomposed = f.conj().T @ np.diag(diagonal) @ f
        assert np.max(np.abs(shift_sum(spec) - recomposed)) <= 1e-12


def test_phase_spectrum_values():
    phases = phase_spectrum(8, 1)
    np.testing.assert_allclose(phases, [np.pi / 4, np.pi / 2, np.pi], atol=1e-15)
    assert phase_spectrum(8, 0) == (0.0, 0.0, 0.0)
    np.testing.assert_allclose(phase_spectrum(8, 8), [0.0, 0.0, 0.0], atol=1e-12)


def test_phase_spectrum_tensor_realization():
    for n in (4, 8, 16):
        omega = np.exp(2j * np.pi * np.arange(n) / n)
        for power in range(-n, n + 1):
            diag = phase_spectrum_diagonal(phase_spectrum(n, power))
            assert np.max(np.abs(diag - omega**power)) <= 1e-12


def test_classical_matvec_examples():
    spec = ToeplitzSpec(4, TRIDIAG)
    np.testing.assert_allclose(
        classical_toeplitz_matvec(spec, np.ones(4)).real, [1, 0, 0, 1], atol=1e-15
    )
    v = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(
        classical_toeplitz_matvec(ToeplitzSpec(4, {0: 1.0}), v).real, v, atol=1e-15
    )
    np.testing.assert_allclose(
        classical_toeplitz_matvec(ToeplitzSpec(4, {0: 3.0}), v).real, 3 * v, atol=1e-15
    )


def test_classical_matvec_against_dense():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.choice([4, 8, 16]))
        spec = random_banded(n, rng)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(
            classical_toeplitz_matvec(spec, v), toeplitz_to_dense(spec) @ v, atol=1e-12
        )


def test_classical_matvec_dimension():
    with pytest.raises(DimensionMismatch):
        classical_toeplitz_matvec(ToeplitzSpec(4, TRIDIAG), np.ones(5))


def test_band_autocorrelation_tridiagonal():
    auto = band_autocorrelation(ToeplitzSpec(8, TRIDIAG))
    assert auto.coeffs == SQUARED_BAND


def test_corner_corrections_tridiagonal():
    corners = corner_corrections(ToeplitzSpec(8, TRIDIAG))
    assert corners == {(0, 0): 1.0, (7, 7): 1.0}


def test_gram_identity_random_real_specs():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.choice([8, 16]))
        spec = random_banded(n, rng, max_band=3)
        t = toeplitz_to_dense(spec)
        gram = toeplitz_to_dense(band_autocorrelation(spec))
        for (i, j), val in corner_corrections(spec).items():
            gram[i, j] -= val
        np.testing.assert_allclose(gram, t.conj().T @ t, atol=1e-12)
