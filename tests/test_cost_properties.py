"""Property: over the input domain the CLI accepts, every cost equals its
dense oracle at random parameters, shot mode with each draw taken at its
exact probability reports what exact mode reports, row by row, and the
banded route on [-1, 2, -1] is the Poisson route."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vqtoeplitz.linalg import fidelity, normalize
from vqtoeplitz.poisson import BoundaryCondition, PoissonProblem, prepare_b
from vqtoeplitz.toeplitz import ToeplitzSpec, toeplitz_to_dense
from vqtoeplitz.vqa import (
    AnsatzSpec,
    ansatz_state,
    dense_hamiltonian,
    make_linear_system_cost,
    make_matvec_cost,
    make_toeplitz_system_cost,
    matvec_target_state,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
POSITIVE = st.floats(0.01, 100.0)
COEFFICIENTS = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def poisson_problems(draw):
    """d = 1..3 on at most 6 qubits, Dirichlet or (1-D) unified with random
    positive alpha/beta, a uniform or a random real right-hand side."""
    dimension = draw(st.integers(1, 3))
    qubits = draw(st.integers(2 if dimension == 1 else 1, 6 // dimension))
    boundary = BoundaryCondition.dirichlet()
    if dimension == 1 and draw(st.booleans()):
        boundary = BoundaryCondition.unified(*(draw(POSITIVE) for _ in range(4)))
    rhs = "uniform"
    if draw(st.booleans()):
        rhs = np.random.default_rng(draw(SEEDS)).standard_normal(2 ** (dimension * qubits))
    return PoissonProblem(dimension, qubits, boundary, rhs)


@st.composite
def banded_specs(draw):
    """A real band on n = 2..32 points, narrow enough for the Gram T^T T of a
    solve (2K < n), which also keeps it inside the polylog guard."""
    n = 2 ** draw(st.integers(1, 5))
    band = draw(st.integers(0, (n - 1) // 2))
    coeffs = draw(st.dictionaries(st.integers(-band, band), COEFFICIENTS, min_size=1))
    return ToeplitzSpec(n, coeffs)


def random_point(ansatz: AnsatzSpec, seed: int):
    params = np.random.default_rng(seed).uniform(0, 2 * np.pi, ansatz.param_count)
    return params, ansatz_state(ansatz, params)


def exact_and_drawn(make, params, psi) -> float:
    """Exact mode's cost, after checking that its value, psi^T Q psi + c_g -
    (a.psi)^2, is the energy of its estimation table, and that the
    identity-draw shot report matches its report row by row."""
    exact = make(None)
    assert abs(exact(params) - exact._energy(exact._sampled(psi))) <= 1e-12
    energy, rows = exact.report(params)
    shot = make(1000)
    drawn, drawn_rows = shot._report(shot._sampled(psi, lambda p: p))
    assert abs(drawn - energy) <= 1e-12
    assert [row.label for row in drawn_rows] == [row.label for row in rows]
    for row, ref in zip(rows, drawn_rows):
        assert abs(row.value - ref.value) <= 1e-12
        assert abs(row.contribution - ref.contribution) <= 1e-12
    return energy


@PROPERTY
@given(problem=poisson_problems(), depth=st.integers(1, 3), seed=SEEDS)
def test_poisson_cost_is_the_dense_energy(problem, depth, seed):
    ansatz = AnsatzSpec(problem.total_qubits, depth)
    params, psi = random_point(ansatz, seed)
    energy = exact_and_drawn(
        lambda shots: make_linear_system_cost(problem, ansatz, shots=shots), params, psi
    )
    assert abs(energy - psi @ dense_hamiltonian(problem) @ psi) <= 1e-10


@PROPERTY
@given(spec=banded_specs(), depth=st.integers(1, 3), seed=SEEDS)
def test_banded_costs_are_the_dense_energies(spec, depth, seed):
    ansatz = AnsatzSpec(spec.n.bit_length() - 1, depth)
    params, psi = random_point(ansatz, seed)
    vec = normalize(np.random.default_rng(seed + 1).standard_normal(spec.n))
    t_psi = toeplitz_to_dense(spec) @ psi

    energy = exact_and_drawn(
        lambda shots: make_toeplitz_system_cost(spec, vec, ansatz, shots=shots), params, psi
    )
    assert abs(energy - (t_psi @ t_psi - (vec @ t_psi) ** 2)) <= 1e-10

    energy = exact_and_drawn(
        lambda shots: make_matvec_cost(spec, vec, ansatz, shots=shots), params, psi
    )
    assert abs(energy - (1.0 - fidelity(matvec_target_state(spec, vec), psi) ** 2)) <= 1e-10


@PROPERTY
@given(qubits=st.integers(2, 6), depth=st.integers(1, 3), seed=SEEDS, uniform=st.booleans())
def test_tridiagonal_band_solve_is_the_poisson_route(qubits, depth, seed, uniform):
    # toeplitz solve (A = T, G = the Gram decomposition of T^T T) on the band
    # [-1, 2, -1] is the 1-D Dirichlet solve (G = the decomposition of A^2)
    rng = np.random.default_rng(seed)
    problem = PoissonProblem(1, qubits, rhs="uniform" if uniform else rng.standard_normal(2**qubits))
    spec = ToeplitzSpec(problem.n, {-1: -1.0, 0: 2.0, 1: -1.0})
    ansatz = AnsatzSpec(qubits, depth)
    params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
    banded = make_toeplitz_system_cost(spec, prepare_b(problem), ansatz)(params)
    assert abs(banded - make_linear_system_cost(problem, ansatz)(params)) <= 1e-10
