"""Ansatz, cost assembly vs dense oracle, optimizer behavior."""

import contextlib
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from vqtoeplitz import decomposition as deco
from vqtoeplitz.circuits import (
    Circuit,
    NonUnitaryBlock,
    ShotCountZero,
    UnsupportedPattern,
    basis_prep_circuit,
    circuit_unitary,
    controlled_Ll_circuit,
    controlled_word_circuit,
    hadamard_test,
    projector_expectation,
    run_statevector,
    state_prep_circuit,
)
from vqtoeplitz.linalg import DimensionMismatch, basis_state, dense_solve, fidelity, normalize
from vqtoeplitz.poisson import BoundaryCondition, PoissonProblem, build_poisson, prepare_b
from vqtoeplitz.toeplitz import ToeplitzSpec, toeplitz_to_dense
from vqtoeplitz.vqa import (
    AnsatzSpec,
    Cost,
    LengthMismatch,
    OptimizerConfig,
    STALL_TOL,
    STALL_WINDOW,
    TermReport,
    ZeroImage,
    _ROTATION_BLOCK,
    _kron_index,
    _label,
    _nelder_mead,
    ansatz_circuit,
    ansatz_state,
    dense_hamiltonian,
    make_linear_system_cost,
    make_matvec_cost,
    make_toeplitz_system_cost,
    matvec_target_state,
    optimize,
    solution_fidelity,
)

TRIDIAG = {-1: -1.0, 0: 2.0, 1: -1.0}


# ---------------------------------------------------------------------------
# ansatz


def test_ansatz_zero_params_is_vacuum():
    spec = AnsatzSpec(3, 2)
    np.testing.assert_allclose(ansatz_state(spec, np.zeros(6)), basis_state(3, 0), atol=1e-15)


def test_ansatz_single_qubit_pi_rotation():
    spec = AnsatzSpec(1, 1)
    np.testing.assert_allclose(ansatz_state(spec, [np.pi]), [0, 1], atol=1e-15)


def test_ansatz_norm_and_param_count():
    rng = np.random.default_rng(0)
    spec = AnsatzSpec(4, 3)
    assert spec.param_count == 12
    state = ansatz_state(spec, rng.uniform(0, 2 * np.pi, 12))
    assert abs(np.linalg.norm(state) - 1) <= 1e-12


def test_ansatz_amplitudes_are_real():
    # the premise of the real cost: Ry and CNOT keep every amplitude real, so
    # the float64 kernel ansatz_state equals the gate-level simulation
    rng = np.random.default_rng(79)
    for qubits in range(1, 13):
        for depth in (1, 2, 3):
            spec = AnsatzSpec(qubits, depth)
            params = rng.uniform(0, 2 * np.pi, spec.param_count)
            reference = run_statevector(ansatz_circuit(spec, params))
            assert np.all(reference.imag == 0)
            state = ansatz_state(spec, params)
            assert state.dtype == np.float64
            np.testing.assert_allclose(state, reference.real, rtol=0, atol=1e-14)


def test_ansatz_state_matches_circuit_past_twelve_qubits():
    # 13-16 qubits leave a last rotation block of 1, 2, 3 and 1 qubits
    rng = np.random.default_rng(80)
    for qubits in range(13, 17):
        for depth in (1, 2):
            spec = AnsatzSpec(qubits, depth)
            params = rng.uniform(0, 2 * np.pi, spec.param_count)
            reference = run_statevector(ansatz_circuit(spec, params))
            state = ansatz_state(spec, params)
            np.testing.assert_allclose(state, reference.real, rtol=0, atol=1e-14)


def test_kron_index_covers_each_qubit_once():
    for qubits in range(1, 17):
        blocks = _kron_index(qubits)
        covered = []
        for index in blocks:
            g = index.shape[0]
            assert 1 <= g <= _ROTATION_BLOCK and index.shape == (g, 1 << g, 1 << g)
            block = index // 4  # the qubit of each factor, from the top down
            assert np.all(block == block[:, :1, :1])
            covered += list(block[:, 0, 0])
        assert covered == list(range(qubits - 1, -1, -1))


def test_ansatz_length_mismatch():
    with pytest.raises(LengthMismatch):
        ansatz_circuit(AnsatzSpec(3, 2), np.zeros(5))
    with pytest.raises(LengthMismatch):
        ansatz_circuit(AnsatzSpec(3, 2), np.zeros((2, 6)))  # one circuit, one vector
    with pytest.raises(LengthMismatch):
        ansatz_state(AnsatzSpec(3, 2), np.zeros(5))


@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
def test_ansatz_state_of_stacked_points(lead):
    # parameters of shape (..., P) give states of shape (..., 2^N), each row
    # the state of its own parameter vector
    rng = np.random.default_rng(81)
    for qubits in range(1, 7):
        for depth in (1, 2, 3):
            spec = AnsatzSpec(qubits, depth)
            params = rng.uniform(0, 2 * np.pi, lead + (spec.param_count,))
            states = ansatz_state(spec, params)
            assert states.shape == lead + (1 << qubits,)
            for index in np.ndindex(lead):
                single = ansatz_state(spec, params[index])
                assert np.max(np.abs(states[index] - single)) <= 1e-15
            with pytest.raises(LengthMismatch):
                ansatz_state(spec, params[..., 1:])
            bad = params.copy()
            bad.reshape(-1, spec.param_count)[-1, -1] = np.nan
            with pytest.raises(NonUnitaryBlock):
                ansatz_state(spec, bad)


def test_ansatz_state_rejects_nan_parameter():
    params = np.zeros(6)
    params[4] = np.nan
    with pytest.raises(NonUnitaryBlock):
        ansatz_state(AnsatzSpec(3, 2), params)


def test_ansatz_layer_structure():
    circ = ansatz_circuit(AnsatzSpec(3, 2), np.arange(6.0))
    tags = [g.tag for g in circ.gates]
    assert tags == ["ry"] * 3 + ["cnot"] * 2 + ["ry"] * 3 + ["cnot"] * 2


# ---------------------------------------------------------------------------
# cost functions vs dense oracle


@pytest.mark.parametrize(
    "problem",
    [
        PoissonProblem(1, 3),
        PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 1.0, 1.0, 3.0)),
        PoissonProblem(1, 2, rhs=np.array([0.2, -1.0, 0.4, 2.0])),
        PoissonProblem(2, 1),
        PoissonProblem(2, 2),
        PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0), rhs=-np.ones(8)),
    ],
    ids=[
        "dirichlet-1d", "unified-1d", "explicit-rhs", "dirichlet-2d-tiny", "dirichlet-2d",
        "unified-1d-negative-rhs",
    ],
)
def test_cost_matches_dense_hamiltonian(problem):
    rng = np.random.default_rng(14)
    ansatz = AnsatzSpec(problem.total_qubits, 2)
    h = dense_hamiltonian(problem)
    cost = make_linear_system_cost(problem, ansatz)
    for _ in range(20):
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        energy, report = cost.report(params)
        psi = ansatz_state(ansatz, params)
        expected = float(np.real(psi.conj() @ h @ psi))
        assert abs(energy - expected) <= 1e-10
        assert energy >= -1e-10
    assert report  # per-term breakdown is populated


def test_cost_report_contains_linear_bracket():
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    _, report = make_linear_system_cost(problem, ansatz).report(np.zeros(6))
    labels = [row.label for row in report]
    assert "<b|A|psi>" in labels
    assert any(label.startswith("band[") for label in labels)


def test_toeplitz_cost_identity_matrix():
    spec = ToeplitzSpec(8, {0: 1.0})
    ansatz = AnsatzSpec(3, 2)
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 2 * np.pi, 6)
    psi = ansatz_state(ansatz, params)
    b = np.full(8, 1 / np.sqrt(8))
    expected = 1.0 - abs(np.vdot(b, psi)) ** 2
    assert make_toeplitz_system_cost(spec, np.ones(8), ansatz)(params) == pytest.approx(
        expected, abs=1e-10
    )


def test_toeplitz_cost_reproduces_poisson_route():
    spec = ToeplitzSpec(8, TRIDIAG)
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    rng = np.random.default_rng(8)
    poisson_cost = make_linear_system_cost(problem, ansatz)
    band_cost = make_toeplitz_system_cost(spec, np.ones(8), ansatz)
    for _ in range(5):
        params = rng.uniform(0, 2 * np.pi, 6)
        via_poisson = poisson_cost(params)
        via_band = band_cost(params)
        assert via_band == pytest.approx(via_poisson, abs=1e-10)


def test_toeplitz_cost_random_banded_specs():
    rng = np.random.default_rng(44)
    ansatz = AnsatzSpec(3, 2)
    for _ in range(10):
        coeffs = {l: float(rng.standard_normal()) for l in range(-2, 3)}
        spec = ToeplitzSpec(8, coeffs)
        t = toeplitz_to_dense(spec)
        b = normalize(rng.standard_normal(8))
        h = t.conj().T @ (np.eye(8) - np.outer(b, b.conj())) @ t
        params = rng.uniform(0, 2 * np.pi, 6)
        psi = ansatz_state(ansatz, params)
        expected = float(np.real(psi.conj() @ h @ psi))
        assert make_toeplitz_system_cost(spec, b, ansatz)(params) == pytest.approx(
            expected, abs=1e-10
        )


def test_matvec_cost_identity_and_orthogonal():
    ansatz = AnsatzSpec(1, 1)
    spec = ToeplitzSpec(2, {0: 1.0})
    cost = make_matvec_cost(spec, np.array([1.0, 0.0]), ansatz)
    # theta = 0 prepares |0> = v0 exactly: E = 0
    assert cost([0.0]) == pytest.approx(0.0, abs=1e-12)
    # theta = pi prepares |1>, orthogonal to T v0: E = 1
    assert cost([np.pi]) == pytest.approx(1.0, abs=1e-12)


def test_matvec_cost_matches_dense_overlap():
    rng = np.random.default_rng(3)
    ansatz = AnsatzSpec(3, 3)
    for _ in range(10):
        coeffs = {l: float(rng.standard_normal()) for l in range(-2, 3)}
        spec = ToeplitzSpec(8, coeffs)
        v0 = normalize(rng.standard_normal(8))
        target = matvec_target_state(spec, v0)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        psi = ansatz_state(ansatz, params)
        expected = 1.0 - fidelity(psi, target) ** 2
        assert make_matvec_cost(spec, v0, ansatz)(params) == pytest.approx(expected, abs=1e-10)


def test_matvec_near_the_float_range_top():
    # ||T v0|| of the 1.5e308 band overflows unless the band is scaled first
    huge, plain = (ToeplitzSpec(8, {-1: t, 0: t, 1: t}) for t in (1.5e308, 1.5))
    v0, ansatz = np.ones(8), AnsatzSpec(3, 2)
    assert np.max(np.abs(matvec_target_state(huge, v0) - matvec_target_state(plain, v0))) <= 1e-12
    costs = [make_matvec_cost(spec, v0, ansatz) for spec in (huge, plain)]
    for params in np.random.default_rng(31).uniform(0, 2 * np.pi, (5, ansatz.param_count)):
        assert abs(costs[0](params) - costs[1](params)) <= 1e-12


def test_bracket_engine_same_state_asymmetric_band():
    # shot mode: offsets +p and -p share the one bracket <psi|L^p|psi>
    rng = np.random.default_rng(19)
    for coeffs in ({1: 2.0}, {-1: 3.0}, {-2: 1.0, 0: 1.5, 1: -0.5}):
        spec = ToeplitzSpec(8, coeffs)
        band = deco.TermList((deco.DecompositionTerm(1.0, spec),), 8, 1)
        psi = normalize(rng.standard_normal(8))
        cost = Cost(band, band, normalize(rng.standard_normal(8)), AnsatzSpec(3, 1), shots=1000)
        _, (cross, same, _) = cost._report(cost._sampled(psi, lambda p: p))
        dense = toeplitz_to_dense(spec)
        assert abs(same.value - psi @ dense @ psi) <= 1e-10
        assert abs(cross.value - cost.b @ dense @ psi) <= 1e-10


def test_cost_rejects_complex_b():
    a_terms, a2_terms = deco.decompose_dirichlet_1d(8)
    b = prepare_b(PoissonProblem(1, 3))
    for bad in (b * np.exp(0.3j), b.astype(complex)):
        with pytest.raises(ValueError, match="real"):
            Cost(a_terms, a2_terms, bad, AnsatzSpec(3, 1))


def test_matvec_zero_image():
    spec = ToeplitzSpec(8, {1: 1.0})  # pure subdiagonal annihilates |n-1>
    with pytest.raises(ZeroImage):
        make_matvec_cost(spec, basis_state(3, 7), AnsatzSpec(3, 2))
    with pytest.raises(ZeroImage):
        matvec_target_state(spec, basis_state(3, 7))


def test_zero_cost_iff_unit_fidelity():
    # cross-tolerance between the two optimality certificates
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    cost = make_linear_system_cost(problem, ansatz)
    trace = optimize(cost, ansatz, OptimizerConfig(restarts=3, seed=7))
    fid = solution_fidelity(problem, ansatz, trace.best_params)
    assert trace.best_cost <= 1e-5
    assert 1.0 - fid <= 1e-5


def test_shot_mode_cost_converges_near_optimum():
    # at the optimizer's end point the sampled cost concentrates on the exact one
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    cost = make_linear_system_cost(problem, ansatz)
    trace = optimize(cost, ansatz, OptimizerConfig(restarts=2, seed=4, max_iters=600))
    exact = cost(trace.best_params)
    misses = 0
    for trial in range(40):
        sampled = make_linear_system_cost(problem, ansatz, shots=10**6, seed=1000 + trial)(
            trace.best_params
        )
        if abs(sampled - exact) > 0.01:
            misses += 1
    assert misses <= 2  # >= 95% of trials within 0.01


def test_shot_mode_constant_negative_rhs():
    # H^N prepares +uniform, so a constant negative b must be prepared from its
    # amplitudes; near the solution the shot noise (about 0.004 at 1e6 shots) is
    # far below the 0.18 a sign mix-up between the terms of <b|A|psi> adds here.
    problem = PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0), rhs=-np.ones(8))
    ansatz = AnsatzSpec(3, 2)
    params = np.array([9.4216, 3.8033, 1.4838, 4.7156, 2.2538, 0.1736])
    psi = ansatz_state(ansatz, params)
    expected = float(np.real(psi.conj() @ dense_hamiltonian(problem) @ psi))
    sampled = make_linear_system_cost(problem, ansatz, shots=10**6, seed=0)(params)
    assert abs(sampled - expected) < 0.01


# ---------------------------------------------------------------------------
# statevector engine vs the gate-level circuits


def _gram_term_lists(spec):
    a_terms = deco.TermList(
        (deco.DecompositionTerm(1.0, spec),), spec.n, 1, bra_equals_ket=False
    )
    return a_terms, deco.decompose_banded_gram(spec)


def _matvec_term_lists(spec, v0):
    cost = make_matvec_cost(spec, v0, AnsatzSpec(spec.n.bit_length() - 1, 1))
    return cost.a_terms, cost.g_terms


ENGINE_FAMILIES = {
    "dirichlet-1d": deco.decompose_dirichlet_1d(8),
    "unified-1d": deco.decompose_unified_1d(8, 0.35, 0.65),
    "words-2d": (deco.decompose_dirichlet_dd(2, 4), deco.decompose_dirichlet_dd_squared(2, 4)),
    "words-3d": (deco.decompose_dirichlet_dd(3, 4), deco.decompose_dirichlet_dd_squared(3, 4)),
    "banded-gram": _gram_term_lists(ToeplitzSpec(8, {-2: 0.7, -1: -1.3, 0: 2.1, 1: 0.4, 2: -0.9})),
    "matvec": _matvec_term_lists(ToeplitzSpec(8, {-1: 0.5, 0: 1.7, 2: -1.1}), np.linspace(-1, 2, 8)),
}


def _term_report(cost, cross, same) -> tuple[float, list[TermReport]]:
    """The cost assembled term by term from the term values cross(op) =
    <b|op|psi> and same(op) = <psi|op|psi>: one report row per term, the
    overlap <b|A|psi> last, as ``Cost.report`` lays them out."""
    report, linear, square = [], 0.0, 0.0
    for term in cost.a_terms.terms:
        value = cross(term.op)
        linear += term.coefficient * value
        report.append(TermReport(_label(term.op), value, term.coefficient * value))
    for term in cost.g_terms.terms:
        identity = isinstance(term.op, deco.TensorWord) and term.op.is_identity
        value = 1.0 if identity else same(term.op)
        # a conjugate pair W + W^T: <psi|W^T|psi> = <psi|W|psi>
        contribution = (2 if term.conjugate_pair else 1) * term.coefficient * value
        square += contribution
        report.append(TermReport(_label(term.op), value, contribution))
    report.append(TermReport("<b|A|psi>", linear, -linear**2))
    return square - linear**2, report


def _gate_bracket(op, n, left, right, shots=None, seeds=None) -> float:
    """The real <left|op|right> from Hadamard tests on the paper's circuits.
    With ``shots`` only the real-part test runs, sampling with the next seed
    from ``seeds``; without, the imaginary-part test checks that it is 0."""
    num_qubits = left.shape[0].bit_length() - 1

    def test(controlled, left_u, right_u):
        if shots:
            return hadamard_test(controlled, left_u, right_u, "real", shots, next(seeds))
        re, im = (hadamard_test(controlled, left_u, right_u, part)
                  for part in ("real", "imag"))
        assert abs(im) <= 1e-10
        return re

    def prep(state):
        return circuit_unitary(state_prep_circuit(state))

    if isinstance(op, ToeplitzSpec):
        pad = np.zeros(op.n)
        left_u, right_u = prep(np.concatenate([left, pad])), prep(np.concatenate([right, pad]))
        return sum(  # T is the top-left block of sum_l t_l L^l on 2n points
            coeff * test(controlled_Ll_circuit(2 * op.n, power % (2 * op.n)), left_u, right_u)
            for power, coeff in op.coeffs.items()
        )
    if isinstance(op, deco.ProjectorPair):
        # sum_(i,j) left_i <j|right>, each amplitude one basis-state bracket
        identity = Circuit(num_qubits + 1)
        return sum(
            left[i]
            * test(identity, circuit_unitary(basis_prep_circuit(num_qubits, j)), prep(right))
            for i, j in op.entries
        )
    controlled = controlled_word_circuit(deco.word_to_dense(op, n))
    return test(controlled, prep(left), prep(right))


@pytest.mark.parametrize("family", list(ENGINE_FAMILIES))
def test_exact_cost_matches_circuit_engine(family):
    # exact mode, the gate-level circuits, and shot mode with each estimation
    # drawn as its exact probability all give the same report
    rng = np.random.default_rng(72)
    a_terms, a2_terms = ENGINE_FAMILIES[family]
    n, num_qubits = a_terms.n, a_terms.total_dim.bit_length() - 1
    ansatz = AnsatzSpec(num_qubits, 2)
    b = normalize(rng.standard_normal(a_terms.total_dim))
    cost = Cost(a_terms, a2_terms, b, ansatz)
    shot = Cost(a_terms, a2_terms, b, ansatz, shots=1000)
    for _ in range(2):
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        energy, report = cost.report(params)
        psi = ansatz_state(ansatz, params)
        circuit_report = _term_report(
            cost,
            lambda op: _gate_bracket(op, n, b, psi),
            lambda op: (
                projector_expectation(op, psi)
                if isinstance(op, deco.ProjectorPair)
                else _gate_bracket(op, n, psi, psi)
            ),
        )
        drawn_report = shot._report(shot._sampled(psi, lambda p: p))
        for ref_energy, ref_report in (circuit_report, drawn_report):
            assert abs(energy - ref_energy) <= 1e-10
            assert [row.label for row in report] == [row.label for row in ref_report]
            for row, ref in zip(report, ref_report):
                assert abs(row.value - ref.value) <= 1e-10
                assert abs(row.contribution - ref.contribution) <= 1e-10


def test_exact_cost_rejects_unmeasurable_projector():
    # exact mode evaluates only what the shot circuits can measure
    a_terms, _ = deco.decompose_dirichlet_1d(8)
    triple = deco.ProjectorPair(((0, 0), (1, 1), (2, 2)))
    a2_terms = deco.TermList((deco.DecompositionTerm(1.0, triple),), 8, 1)
    with pytest.raises(UnsupportedPattern):
        Cost(a_terms, a2_terms, prepare_b(PoissonProblem(1, 3)), AnsatzSpec(3, 1))


def test_cost_seed_policy():
    # a Cost draws from one generator made from its seed, __call__ and report alike
    problem = PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0))
    ansatz = AnsatzSpec(3, 2)
    rng = np.random.default_rng(75)
    points = [rng.uniform(0, 2 * np.pi, ansatz.param_count) for _ in range(4)]

    def fresh(seed=11):
        return make_linear_system_cost(problem, ansatz, shots=1000, seed=seed)

    first, second = fresh(), fresh()
    assert [first(p) for p in points] == [second(p) for p in points]
    assert fresh().report(points[0])[0] == fresh()(points[0])
    stepped, other = fresh(), fresh()
    stepped.report(points[0])
    other(points[0])
    assert stepped(points[1]) == other(points[1])
    repeated = fresh()
    assert repeated(points[2]) != repeated(points[2])


def test_shot_mode_rejects_zero_shots():
    with pytest.raises(ShotCountZero):
        make_linear_system_cost(PoissonProblem(1, 3), AnsatzSpec(3, 1), shots=0)


def test_shot_mode_at_twelve_qubits():
    # the largest register the CLI admits; shot mode works on the 2^12 statevector
    problem = PoissonProblem(1, 12)
    ansatz = AnsatzSpec(12, 1)
    params = np.random.default_rng(76).uniform(0, 2 * np.pi, ansatz.param_count)
    assert np.isfinite(make_linear_system_cost(problem, ansatz, shots=100, seed=3)(params))
    exact = make_linear_system_cost(problem, ansatz)(params)
    shot = make_linear_system_cost(problem, ansatz, shots=100)
    drawn = shot._energy(shot._sampled(ansatz_state(ansatz, params), lambda p: p))
    assert abs(drawn - exact) <= 1e-10


def test_dropped_cost_keeps_no_words():
    # a cost builds its own words and they go with it: after an exact
    # evaluation at 2-D with 6 qubits per axis (words of 4096 entries) and a
    # collection, traced memory is back within 1 MB of where it started
    problem = PoissonProblem(2, 6)
    ansatz = AnsatzSpec(problem.total_qubits, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cost = make_linear_system_cost(problem, ansatz)
        cost(np.zeros(ansatz.param_count))
        del cost
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert left < 2**20


def _sparse_energy(problem: PoissonProblem, psi: np.ndarray) -> float:
    """The sparse oracle ||A psi||^2 - <b|A psi>^2, with A the Kronecker sum
    of the 1-D tridiagonal operator over the axes."""
    n, dimension = problem.n, problem.dimension
    one_d = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = sum(
        scipy.sparse.kron(
            scipy.sparse.kron(scipy.sparse.identity(n**site), one_d),
            scipy.sparse.identity(n ** (dimension - 1 - site)),
        )
        for site in range(dimension)
    )
    a_psi = a @ psi
    return float(a_psi @ a_psi - (prepare_b(problem) @ a_psi) ** 2)


@pytest.mark.parametrize("dimension, qubits_per_axis", [(2, 6), (3, 4)])
def test_tensor_word_cost_at_twelve_qubits(dimension, qubits_per_axis):
    # the largest d-D problems the CLI admits; a dense 4096 x 4096 word
    # alone would take 128 MiB, the signed-permutation words a few MiB in all
    problem = PoissonProblem(dimension, qubits_per_axis)
    ansatz = AnsatzSpec(problem.total_qubits, 1)
    params = np.random.default_rng(78).uniform(0, 2 * np.pi, ansatz.param_count)
    tracemalloc.start()
    try:
        exact = make_linear_system_cost(problem, ansatz)(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    psi = ansatz_state(ansatz, params)
    assert abs(exact - _sparse_energy(problem, psi)) <= 1e-10
    shot = make_linear_system_cost(problem, ansatz, shots=100)
    drawn = shot._energy(shot._sampled(psi, lambda p: p))
    assert abs(drawn - exact) <= 1e-10


def test_word_cost_at_sixteen_qubits():
    # past the dense cap: 2-D with 8 qubits per axis, where each gather block
    # holds one word, against the sparse oracle
    problem = PoissonProblem(2, 8)
    ansatz = AnsatzSpec(problem.total_qubits, 1)
    params = np.random.default_rng(80).uniform(0, 2 * np.pi, ansatz.param_count)
    cost = make_linear_system_cost(problem, ansatz)
    assert all(perm.shape[0] == 1 for perm, _ in cost._gathers)
    assert abs(cost(params) - _sparse_energy(problem, ansatz_state(ansatz, params))) <= 1e-10


UNIFIED = BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0)


@pytest.mark.parametrize(
    "problems, brackets, probabilities",
    [
        ([PoissonProblem(1, q) for q in (3, 4, 5, 6, 12)], 5, 2),
        ([PoissonProblem(1, q, UNIFIED) for q in (3, 4, 5, 6, 12)], 7, 6),
        ([PoissonProblem(2, q) for q in (2, 3, 6)], 57, 0),
        ([PoissonProblem(3, q) for q in (1, 2, 4)], 121, 0),
    ],
    ids=["dirichlet-1d", "unified-1d", "dirichlet-2d", "dirichlet-3d"],
)
def test_shot_estimations_independent_of_n(problems, brackets, probabilities):
    # the paper's claim, on what both modes execute: the number of circuit
    # estimations per evaluation does not grow with the grid (one Hadamard
    # test per bracket, one probability per projector preparation), nor does
    # the table's split into brackets, drawn first, and probabilities
    counts = []
    for problem in problems:
        ansatz = AnsatzSpec(problem.total_qubits, 1)
        cost = make_linear_system_cost(problem, ansatz, shots=100)
        drawn = []

        def draw(p):
            drawn.append(p.size)
            return p

        cost._sampled(ansatz_state(ansatz, np.full(ansatz.param_count, 0.3)), draw)
        assert drawn == [cost.estimations]
        counts.append((cost._brackets, cost.estimations))
    assert counts == [(brackets, brackets + probabilities)] * len(problems)


def test_seeded_shot_costs_are_pinned():
    # the draw order and the one generator per cost: a fresh unified 1-D cost
    # at seed 11 and 1000 shots gives these first three evaluations
    problem = PoissonProblem(1, 3, UNIFIED)
    cost = make_linear_system_cost(problem, AnsatzSpec(3, 2), shots=1000, seed=11)
    points = [
        np.full(6, 0.3),
        np.linspace(0.0, 2 * np.pi, 6),
        np.array([1.0, -2.0, 0.5, 3.0, -0.7, 2.2]),
    ]
    recorded = [2.3654255172150176, 4.700538667793379, 7.89680529015687]
    for point, value in zip(points, recorded):
        assert abs(cost(point) - value) <= 1e-12


def test_draw_order_is_table_order():
    # brackets <b|L^p|psi>, then brackets <psi|L^p|psi>, then projector
    # probabilities, even where G lists its projector pair before its band
    a_terms, a2_terms = deco.decompose_dirichlet_1d(8)
    band, pair = (term.op for term in a2_terms.terms)
    g_terms = deco.TermList((deco.DecompositionTerm(-1.0, pair),
                             deco.DecompositionTerm(1.0, band)), 8, 1)
    ansatz = AnsatzSpec(3, 1)
    psi = ansatz_state(ansatz, np.array([0.4, -1.1, 2.3]))
    cost = Cost(a_terms, g_terms, prepare_b(PoissonProblem(1, 3)), ansatz, shots=100)
    drawn = []
    cost._sampled(psi, lambda p: drawn.append(p) or p)
    shift = {p: toeplitz_to_dense(ToeplitzSpec(8, {p: 1.0})) for p in (-1, 0, 1, 2)}
    brackets = [cost.b @ shift[p] @ psi for p in (-1, 0, 1)] + [psi @ shift[p] @ psi for p in (1, 2)]
    # |0><0| + |7><7| is read as the projectors onto (|0> + |7>)/sqrt(2) and (|0> - |7>)/sqrt(2)
    probabilities = [(psi[0] + psi[7]) ** 2 / 2, (psi[0] - psi[7]) ** 2 / 2]
    expected = [(1 + x) / 2 for x in brackets] + probabilities
    assert np.max(np.abs(drawn[0] - expected)) <= 1e-12


def test_shot_distribution_matches_gate_level_sampling():
    # Shot mode draws each ancilla from the statevector; the gate-level
    # circuits sample their whole register.  Same estimator, same spread.
    problem = PoissonProblem(1, 3, UNIFIED)  # band terms and projector pairs
    ansatz = AnsatzSpec(3, 2)
    params = np.random.default_rng(77).uniform(0, 2 * np.pi, ansatz.param_count)
    psi, n, shots, trials = ansatz_state(ansatz, params), problem.n, 1000, 400
    cost = make_linear_system_cost(problem, ansatz, shots=shots, seed=0)
    exact = make_linear_system_cost(problem, ansatz)(params)

    def gate_level(seeds):
        def same(op):
            if isinstance(op, deco.ProjectorPair):
                return projector_expectation(op, psi, shots, next(seeds))
            # opposite shift powers share one bracket per |power|
            total = op.coeffs.get(0, 0.0)
            for power in sorted({abs(l) for l in op.coeffs} - {0}):
                x = _gate_bracket(ToeplitzSpec(n, {power: 1.0}), n, psi, psi, shots, seeds)
                total += (op.coeffs.get(power, 0.0) + op.coeffs.get(-power, 0.0)) * x
            return total

        def cross(op):
            return _gate_bracket(op, n, cost.b, psi, shots, seeds)

        return _term_report(cost, cross, same)[0]

    engine = np.array([cost(params) for _ in range(trials)])
    # step 4: a projector circuit pair samples with seed and seed + 1
    circuits = np.array([gate_level(itertools.count(10**4 * t, 4)) for t in range(trials)])
    # Both estimate |<b|A|psi>|^2 with a bias of -Var<b|A|psi>, here about
    # 1.6 standard errors of the mean of 400.
    for sample in (engine, circuits):
        assert abs(sample.mean() - exact) <= 5 * sample.std(ddof=1) / np.sqrt(trials)
    # For two independent normal samples of 400 the variance ratio is
    # F(399, 399): a ratio of deviations outside [0.8, 1.25] has probability
    # 9e-6 (the false-failure rate of this bound).
    ratio = engine.std(ddof=1) / circuits.std(ddof=1)
    assert 0.8 <= ratio <= 1.25


def test_cost_rejects_mismatched_sizes():
    a_terms, a2_terms = deco.decompose_dirichlet_1d(8)
    b = prepare_b(PoissonProblem(1, 3))
    with pytest.raises(DimensionMismatch):
        Cost(a_terms, a2_terms, b, AnsatzSpec(2, 1))
    with pytest.raises(DimensionMismatch):
        Cost(a_terms, a2_terms, np.ones(4) / 2, AnsatzSpec(2, 1))
    # G must act on A's grid: same d and n, not only the same number of amplitudes
    a_2d, b_2d = deco.decompose_dirichlet_dd(2, 4), prepare_b(PoissonProblem(2, 2))
    for g_terms in (deco.decompose_dirichlet_dd_squared(2, 8), deco.decompose_dirichlet_1d(16)[1]):
        with pytest.raises(DimensionMismatch):
            Cost(a_2d, g_terms, b_2d, AnsatzSpec(4, 1))
    with pytest.raises(ValueError, match="power of two"):
        make_toeplitz_system_cost(ToeplitzSpec(6, TRIDIAG), np.ones(6), AnsatzSpec(3, 1))


# ---------------------------------------------------------------------------
# optimizer


def test_optimize_constant_cost_stalls_out():
    spec = AnsatzSpec(2, 1)
    trace = optimize(lambda p: 1.0, spec, OptimizerConfig(restarts=1, seed=0))
    assert trace.best_cost == 1.0
    costs = [r.cost for r in trace.records]
    assert all(c == 1.0 for c in costs)
    assert len(trace.records) <= 60  # stall window plus simplex warmup


def test_optimize_quadratic_sanity():
    spec = AnsatzSpec(1, 1)
    trace = optimize(lambda p: (p[0] - 1.0) ** 2, spec, OptimizerConfig(restarts=2, seed=1))
    assert abs(trace.best_params[0] - 1.0) <= 1e-4
    assert trace.best_cost <= 1e-8


def test_optimize_reproducible():
    spec = AnsatzSpec(2, 2)
    problem = PoissonProblem(1, 2, rhs=np.array([1.0, 2.0, 3.0, 4.0]))
    config = OptimizerConfig(restarts=2, seed=9, max_iters=200)
    cost = make_linear_system_cost(problem, AnsatzSpec(2, 2))
    t1 = optimize(cost, spec, config)
    cost2 = make_linear_system_cost(problem, AnsatzSpec(2, 2))
    t2 = optimize(cost2, spec, config)
    assert t1.best_cost == t2.best_cost
    assert [(r.iteration, r.restart, r.cost) for r in t1.records] == [
        (r.iteration, r.restart, r.cost) for r in t2.records
    ]


def test_optimize_trace_monotone_within_restart():
    spec = AnsatzSpec(2, 2)
    problem = PoissonProblem(1, 2)
    cost = make_linear_system_cost(problem, spec)
    trace = optimize(cost, spec, OptimizerConfig(restarts=2, seed=2, max_iters=300))
    for restart in (0, 1):
        costs = [r.cost for r in trace.records if r.restart == restart]
        assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert trace.best_cost == min(r.cost for r in trace.records)


def test_optimize_records_fidelity_when_reference_known():
    spec = AnsatzSpec(2, 2)
    problem = PoissonProblem(1, 2)
    from vqtoeplitz.linalg import dense_solve
    from vqtoeplitz.poisson import build_poisson_1d

    x = normalize(dense_solve(build_poisson_1d(problem), np.asarray(prepare_b(problem))))
    cost = make_linear_system_cost(problem, spec)
    trace = optimize(cost, spec, OptimizerConfig(restarts=1, seed=3, max_iters=400), x)
    fids = [r.fidelity for r in trace.records]
    assert None not in fids and fids[-1] > 0.9
    assert abs(fids[-1] - fidelity(x, ansatz_state(spec, trace.best_params))) <= 1e-15


@pytest.mark.parametrize("dimension, qubits_per_axis, depth", [(1, 3, 2), (2, 2, 1)])
def test_optimize_fidelity_is_that_of_the_best_point_so_far(dimension, qubits_per_axis, depth):
    # the fidelities come from batched state preparations after each restart;
    # each must be that of the best point the cost had seen by its record
    problem = PoissonProblem(dimension, qubits_per_axis)
    spec = AnsatzSpec(problem.total_qubits, depth)
    cost = make_linear_system_cost(problem, spec)
    x = normalize(dense_solve(build_poisson(problem), np.asarray(prepare_b(problem))))
    seen = []

    def recording(p):
        seen.append((np.array(p, dtype=float), cost(p)))
        return seen[-1][1]

    config = OptimizerConfig(restarts=3, seed=5, max_iters=150)
    trace = optimize(recording, spec, config, x)
    assert len(seen) == len(trace.records)
    for (point, value), rec in zip(seen, trace.records):
        if rec.iteration == 1:
            best, best_point = np.inf, None
        if value < best:
            best, best_point = value, point
        assert rec.cost == best
        assert abs(rec.fidelity - fidelity(x, ansatz_state(spec, best_point))) <= 1e-15
    assert {rec.restart for rec in trace.records} == set(range(config.restarts))

    untracked = optimize(cost, spec, config)
    assert all(rec.fidelity is None for rec in untracked.records)
    assert [(r.iteration, r.restart, r.cost) for r in untracked.records] == [
        (r.iteration, r.restart, r.cost) for r in trace.records
    ]


def test_optimize_counts_evaluations_up_to_max_iters():
    # the cost still improves at every call, so max_iters is what stops the restart
    spec = AnsatzSpec(1, 1)
    calls = []

    def improving(p):
        calls.append(p)
        return 1.0 / len(calls)

    config = OptimizerConfig(restarts=1, seed=5, max_iters=100)
    trace = optimize(improving, spec, config)
    assert len(calls) == len(trace.records) == config.max_iters


@pytest.mark.parametrize("start", [0, 1])
def test_nelder_mead_matches_scipy(start):
    # the optimizer's Nelder-Mead evaluates the points scipy's default one does,
    # in the same order: on the paper cost until a cap stops it, and on
    # Rosenbrock's function until the simplex converges
    import scipy.optimize

    class Cap(Exception):
        pass

    def recorded(f, cap):
        points = []

        def g(x):
            if len(points) == cap:
                raise Cap
            points.append(np.array(x))
            return f(x)

        return points, g

    paper = make_linear_system_cost(PoissonProblem(1, 3), AnsatzSpec(3, 2))
    x0 = np.random.default_rng(start).uniform(0, 2 * np.pi, 6)
    rosen = scipy.optimize.rosen
    for f, x0, cap in ((paper, x0, 600), (rosen, np.array([-1.2, 1.0 + start]), 10**4)):
        ours = []
        run = _nelder_mead(x0)
        for x in run:
            if len(ours) == cap:
                break
            ours.append(np.array(x))
            run.send(f(x))
        theirs, h = recorded(f, cap)
        with contextlib.suppress(Cap):
            scipy.optimize.minimize(h, x0, method="Nelder-Mead", options={
                "maxiter": 10**6, "maxfev": 10**6, "xatol": 1e-12, "fatol": 1e-14})
        assert len(ours) == len(theirs) < 10**4
        np.testing.assert_array_equal(ours, theirs)


def test_restart_ends_when_the_simplex_converges():
    # the last gain of STALL_TOL comes at evaluation 102 and the simplex
    # converges 14 evaluations later: neither max_iters nor a stall ends it
    config = OptimizerConfig(restarts=1, seed=0)
    trace = optimize(lambda p: 1e20 * (p[0] - 1.0) ** 2, AnsatzSpec(1, 1), config)
    best = [np.inf] + [record.cost for record in trace.records]
    gains = [k for k in range(1, len(best)) if best[k] < best[k - 1] - STALL_TOL]
    assert len(trace.records) == 116 < config.max_iters
    assert gains[-1] == 102 >= len(trace.records) - STALL_WINDOW


def test_optimizer_config_rejects_empty_budgets():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=bad)
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=bad)


def test_solution_fidelity_matches_manual():
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    rng = np.random.default_rng(12)
    from vqtoeplitz.linalg import dense_solve
    from vqtoeplitz.poisson import build_poisson_1d

    x = normalize(dense_solve(build_poisson_1d(problem), np.asarray(prepare_b(problem))))
    for _ in range(5):
        params = rng.uniform(0, 2 * np.pi, 6)
        manual = abs(np.vdot(x, ansatz_state(ansatz, params)))
        assert solution_fidelity(problem, ansatz, params) == pytest.approx(manual, abs=1e-12)


def test_trace_csv_round_trip(tmp_path):
    spec = AnsatzSpec(1, 1)
    trace = optimize(lambda p: (p[0] - 1.0) ** 2, spec, OptimizerConfig(restarts=1, seed=0))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,restart,cost,fidelity"
    assert len(lines) == len(trace.records) + 1
