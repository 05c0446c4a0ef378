"""Oracle checks: DFT conventions, shift matrices, solves, state helpers."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from vqtoeplitz.linalg import (
    PIVOT_TOL,
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
    _lu,
)
from vqtoeplitz.poisson import BoundaryCondition, PoissonProblem, build_poisson, prepare_b
from vqtoeplitz.toeplitz import ToeplitzSpec, toeplitz_to_dense


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


def _lu_cases():
    rng = np.random.default_rng(27)
    # random well-conditioned matrices (an orthogonal factor, so every column
    # pivots) across the halving, the 256-column blocks and the strips
    for n in (1, 2, 3, 8, 17, 64, 65, 129, 255, 256, 257, 300):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        yield pytest.param(q * rng.uniform(1.0, 10.0, n), id=f"random-{n}")
    # +-1 entries: columns whose largest |entry| is tied, which the first row wins
    yield pytest.param(rng.choice([-1.0, 1.0], (16, 16)), id="signs-16")
    yield pytest.param(build_poisson(PoissonProblem(1, 5)), id="dirichlet-1d")
    unified = BoundaryCondition.unified(1, 2, 3, 1)
    yield pytest.param(build_poisson(PoissonProblem(1, 5, unified)), id="unified-1d")
    yield pytest.param(build_poisson(PoissonProblem(2, 4)), id="dirichlet-2d")
    band = ToeplitzSpec(64, {0: 1.0, 1: 2.5, -1: -0.7, 2: 0.3, -3: 1.2})
    yield pytest.param(toeplitz_to_dense(band), id="band")


@pytest.mark.parametrize("a", list(_lu_cases()))
def test_lu_matches_scipy(a):
    # the same rows as LAPACK's getrf, the same |U diagonal| and the same x
    lu, piv = scipy.linalg.lu_factor(a)
    perm = np.arange(len(a))
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    ours, our_perm = _lu(a)
    np.testing.assert_array_equal(our_perm, perm)
    u, our_u = np.abs(np.diagonal(lu)), np.abs(np.diagonal(ours))
    assert np.max(np.abs(our_u - u) / u) <= 1e-12
    b = np.random.default_rng(len(a)).standard_normal(len(a))
    x = dense_solve(a, b)
    assert x.dtype == np.float64
    assert np.max(np.abs(x - scipy.linalg.lu_solve((lu, piv), b))) <= 1e-12


@pytest.mark.parametrize("a", [
    np.eye(8) + np.eye(8, k=1) + np.eye(8, k=-1),  # tridiag(1, 1, 1) is singular at n = 8
    np.diag([2.0, 2.0 * PIVOT_TOL * (1 - 1e-6)]),  # a pivot just under the relative bound
], ids=["tridiag-1-1-1", "under-bound"])
def test_dense_solve_singular_cases(a):
    with pytest.raises(SingularMatrix):
        dense_solve(a, np.ones(len(a)))


def test_dense_solve_small_but_regular():
    # the pivot bound is relative to max|a|, so a uniformly tiny matrix solves
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(dense_solve(1e-13 * np.eye(3), b), 1e13 * b, rtol=1e-15)
    a = np.diag([2.0, 2.0 * PIVOT_TOL * (1 + 1e-6)])
    np.testing.assert_allclose(a @ dense_solve(a, np.ones(2)), np.ones(2), rtol=1e-12)


def test_dense_solve_rejects_non_finite_and_empty():
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_solve(np.eye(2), np.array([1.0, np.inf]))
    with pytest.raises(DimensionMismatch):
        dense_solve(np.zeros((0, 0)), np.zeros(0))


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


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's sources; its output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_package_import_skips_scipy_linalg_and_optimize():
    # the sparse builders import scipy.sparse when they run, the LU and
    # Nelder-Mead are numpy code in the package, so none of these modules'
    # resident memory comes with the import
    probe = (
        "import sys, vqtoeplitz; "
        "print(sorted({'scipy.linalg', 'scipy.optimize', 'scipy.sparse'} & set(sys.modules)))"
    )
    assert _python(probe) == "[]"


def test_solves_load_no_scipy_linalg_or_optimize(tmp_path):
    # a whole CLI solve, reference LU included, runs on numpy and scipy.sparse
    poisson, band = tmp_path / "poisson.json", tmp_path / "band.json"
    poisson.write_text(json.dumps({"dimension": 1, "qubits_per_axis": 3}))
    band.write_text(json.dumps({"n": 8, "coeffs": {"0": 2, "1": -1, "-1": -1}}))
    runs = [
        ["solve-poisson", "--config", str(poisson), "--restarts", "1", "--out", str(tmp_path / "p")],
        ["toeplitz", "solve", "--config", str(band), "--restarts", "1", "--out", str(tmp_path / "t")],
    ]
    probe = (
        "import sys; from vqtoeplitz import cli; "
        f"codes = [cli.main(argv) for argv in {runs!r}]; "
        "print(codes, sorted({'scipy.linalg', 'scipy.optimize'} & set(sys.modules)))"
    )
    assert _python(probe).splitlines()[-1] == "[0, 0] []"


def test_no_solve_or_verify_loads_scipy(tmp_path):
    # the pre-solve gate's sparse matrices are numpy code as well, so after
    # each command no scipy module at all is loaded
    configs = {
        "dirichlet": {"dimension": 1, "qubits_per_axis": 3},
        "unified": {"dimension": 1, "qubits_per_axis": 3, "boundary": {
            "kind": "unified", "alpha1": 1, "alpha2": 2, "beta1": 3, "beta2": 1}},
        "2d": {"dimension": 2, "qubits_per_axis": 2},
        "band": {"n": 8, "coeffs": {"0": 2, "1": -1, "-1": -1}},
    }
    for name, payload in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    solve = ["--restarts", "1", "--config"]
    runs = [["solve-poisson", *solve, str(tmp_path / f"{name}.json")]
            for name in ("dirichlet", "unified", "2d")]
    runs += [["toeplitz", mode, *solve, str(tmp_path / "band.json")] for mode in ("solve", "matvec")]
    runs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    runs.append(["verify", "--out", str(tmp_path / "verify")])
    probe = (
        "import sys; from vqtoeplitz import cli\n"
        f"for argv in {runs!r}:\n"
        "    code = cli.main(argv)\n"
        "    scipy = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "    print('after', argv[:2], code, scipy)"
    )
    reports = [line for line in _python(probe).splitlines() if line.startswith("after ")]
    assert reports == [f"after {argv[:2]} 0 []" for argv in runs]
