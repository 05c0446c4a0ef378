"""Poisson operator builders, boundary coefficients, right-hand sides."""

import numpy as np
import pytest

from vqtoeplitz.linalg import DimensionOverflow, ZeroVector
from vqtoeplitz.poisson import (
    BoundaryCondition,
    PoissonProblem,
    UnsupportedProblem,
    WrongKind,
    boundary_coefficients,
    build_poisson_1d,
    build_poisson,
    build_poisson_dd,
    poisson_sparse,
    prepare_b,
    problem_from_dict,
)


def test_boundary_coefficients_values():
    bc = BoundaryCondition.unified(1.0, 1.0, 1.0, 3.0)
    c, d = boundary_coefficients(bc, 3)  # h = 1/4
    assert c == pytest.approx(4 / 5)
    assert d == pytest.approx(4 / 7)


def test_boundary_coefficients_neumann_limit():
    bc = BoundaryCondition.unified(1.0, 1e-12, 1.0, 1e-12)
    c, d = boundary_coefficients(bc, 3)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert d == pytest.approx(1.0, abs=1e-12)


def test_boundary_coefficients_wrong_kind():
    with pytest.raises(WrongKind):
        boundary_coefficients(BoundaryCondition.dirichlet(), 4)


def test_boundary_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BoundaryCondition.unified(1.0, bad, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("dirichlet", alpha1=1.0)


def test_build_poisson_1d_dirichlet_rows():
    a = build_poisson_1d(PoissonProblem(1, 2))
    expected = np.array(
        [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(a, expected)


def test_build_poisson_1d_unified_corners():
    problem = PoissonProblem(1, 2, BoundaryCondition.unified(1.0, 1.0, 1.0, 1.0))
    a = build_poisson_1d(problem)
    c, d = boundary_coefficients(problem.boundary, 4)  # h = 1/5 -> c = d = 5/6
    assert c == pytest.approx(5 / 6)
    assert a[0, 0] == pytest.approx(2 - 5 / 6)
    assert a[3, 3] == pytest.approx(2 - 5 / 6)
    np.testing.assert_array_equal(a, a.T)


def test_build_poisson_dd_small_cases():
    one_d = build_poisson_dd(PoissonProblem(1, 2))
    np.testing.assert_array_equal(one_d, build_poisson_1d(PoissonProblem(1, 2)))

    two_d = build_poisson_dd(PoissonProblem(2, 1))
    expected = np.array(
        [
            [4, -1, -1, 0],
            [-1, 4, 0, -1],
            [-1, 0, 4, -1],
            [0, -1, -1, 4],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(two_d, expected)

    three_d = build_poisson_dd(PoissonProblem(3, 1))
    np.testing.assert_array_equal(np.diag(three_d), np.full(8, 6.0))


def test_build_poisson_dd_matches_kron_loop():
    for dim, nq in ((2, 2), (3, 1)):
        problem = PoissonProblem(dim, nq)
        a1 = build_poisson_1d(PoissonProblem(1, nq))
        eye = np.eye(problem.n)
        total = np.zeros((problem.total_dim, problem.total_dim))
        for site in range(dim):
            mats = [a1 if k == site else eye for k in range(dim)]
            term = mats[0]
            for m in mats[1:]:
                term = np.kron(term, m)
            total += term
        np.testing.assert_array_equal(build_poisson_dd(problem), total)


def test_build_poisson_dd_positive_definite():
    for dim, nq in ((1, 3), (2, 2)):
        eigs = np.linalg.eigvalsh(build_poisson_dd(PoissonProblem(dim, nq)))
        assert eigs.min() > 0


def test_build_poisson_1d_positive_definite_random_corners():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_qubits = int(rng.integers(2, 7))
        c, d = rng.uniform(0.0, 1.0, 2)
        n = 1 << n_qubits
        a = build_poisson_1d(PoissonProblem(1, n_qubits))
        a[0, 0] -= c
        a[n - 1, n - 1] -= d
        assert np.linalg.eigvalsh(a).min() > 0


def test_build_poisson_dd_overflow():
    with pytest.raises(DimensionOverflow):
        build_poisson_dd(PoissonProblem(3, 5))


def test_build_poisson_1d_overflow():
    with pytest.raises(DimensionOverflow):
        build_poisson_1d(PoissonProblem(1, 13))


def test_poisson_sparse_is_the_dense_operator():
    unified = BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0)
    for problem in (PoissonProblem(1, 3), PoissonProblem(1, 3, unified), PoissonProblem(2, 2),
                    PoissonProblem(3, 1)):
        np.testing.assert_array_equal(poisson_sparse(problem).toarray(), build_poisson(problem))


def test_rhs_must_be_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(UnsupportedProblem, match="finite"):
            PoissonProblem(1, 2, rhs=[bad, 1.0, 1.0, 1.0])
        with pytest.raises(UnsupportedProblem, match="finite"):
            problem_from_dict({"dimension": 1, "qubits_per_axis": 2, "rhs": [1.0, bad, 1.0, 1.0]})


def test_rhs_length_checked_by_qubit_count():
    # n**d is never formed, so a huge dimension is refused at once
    for dimension, rhs in ((1, np.ones(3)), (1, np.ones(8)), (1, np.ones((2, 2))), (1, []),
                           (10**12, np.ones(4))):
        with pytest.raises(UnsupportedProblem, match="qubit grid"):
            PoissonProblem(dimension, 2, rhs=rhs)


def test_unified_requires_1d():
    with pytest.raises(UnsupportedProblem):
        PoissonProblem(2, 2, BoundaryCondition.unified(1, 1, 1, 1))


def test_prepare_b_uniform():
    b = prepare_b(PoissonProblem(1, 3))
    assert b.dtype == np.float64
    np.testing.assert_allclose(b, np.full(8, 1 / np.sqrt(8)), atol=1e-15)


def test_prepare_b_explicit():
    b = prepare_b(PoissonProblem(1, 2, rhs=np.array([1.0, 0, 0, 0])))
    np.testing.assert_allclose(b, [1, 0, 0, 0], atol=1e-15)
    b = prepare_b(PoissonProblem(1, 2, rhs=np.array([3.0, 4.0, 0, 0])))
    np.testing.assert_allclose(b, [0.6, 0.8, 0, 0], atol=1e-15)


def test_prepare_b_zero_rhs():
    with pytest.raises(ZeroVector):
        PoissonProblem(1, 2, rhs=np.zeros(4))


def test_problem_from_dict():
    problem = problem_from_dict(
        {
            "dimension": 1,
            "qubits_per_axis": 3,
            "boundary": {"kind": "unified", "alpha1": 1, "alpha2": 2, "beta1": 1, "beta2": 1},
            "rhs": "uniform",
        }
    )
    assert problem.n == 8
    assert problem.boundary.alpha2 == 2
    with pytest.raises(UnsupportedProblem):
        problem_from_dict({"dimension": 1})
    with pytest.raises(UnsupportedProblem):
        problem_from_dict({"dimension": 1, "qubits_per_axis": 2, "rhs": "garbage"})
