"""Circuit construction and simulation: QFT, shifts, Hadamard tests, sampling."""

import numpy as np
import pytest

from vqtoeplitz.circuits import (
    Circuit,
    Gate,
    NonUnitaryBlock,
    ShotCountZero,
    UnsupportedPattern,
    basis_prep_circuit,
    bell_pair_circuits,
    circuit_unitary,
    controlled_Ll_circuit,
    controlled_word_circuit,
    hadamard_test,
    phase_tower_circuit,
    projector_expectation,
    qft_circuit,
    run_statevector,
    sample_shots,
    state_prep_circuit,
    uniform_prep_circuit,
)
from vqtoeplitz.decomposition import ProjectorPair, reconstruct_dense, TermList, DecompositionTerm
from vqtoeplitz.linalg import (
    DimensionMismatch,
    basis_state,
    build_unit_circulant,
    dft_matrix,
    random_state,
)
from vqtoeplitz.toeplitz import phase_spectrum

S2 = 1 / np.sqrt(2)


# ---------------------------------------------------------------------------
# simulator basics


def test_hadamard_on_zero():
    circ = Circuit(1).h(0)
    np.testing.assert_allclose(run_statevector(circ), [S2, S2], atol=1e-15)


def test_qft_on_zero_is_uniform():
    state = run_statevector(qft_circuit(3))
    np.testing.assert_allclose(state, np.full(8, S2**3), atol=1e-12)


def test_ghz_construction():
    # H on qubit 0, then CNOTs fanning out from qubit 0
    circ = Circuit(3).h(0).cnot(0, 1).cnot(0, 2)
    state = run_statevector(circ)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = S2
    np.testing.assert_allclose(state, expected, atol=1e-15)


def test_initial_state_dimension_check():
    with pytest.raises(DimensionMismatch):
        run_statevector(Circuit(2).h(0), basis_state(1, 0))


def test_non_unitary_block_rejected():
    with pytest.raises(NonUnitaryBlock):
        Circuit(2).block((0, 1), np.ones((4, 4)))


def test_simulation_rejects_norm_change():
    # a typed error rather than an assert, so the check also runs under python -O
    circ = Circuit(2).h(0)
    circ.gates.append(Gate("block", (1,), 2.0 * np.eye(2)))  # builders refuse it
    with pytest.raises(NonUnitaryBlock):
        run_statevector(circ)
    with pytest.raises(NonUnitaryBlock):
        run_statevector(circ, basis_state(2, 3))


def test_gate_qubit_validation():
    with pytest.raises(ValueError):
        Circuit(2).cnot(0, 0)
    with pytest.raises(ValueError):
        Circuit(2).h(5)


def test_circuit_inverse_composes_to_identity():
    rng = np.random.default_rng(4)
    circ = Circuit(3)
    circ.h(0).x(2).ry(0.7, 1).cnot(0, 1).phase(0.3, 0)
    circ.cphase(1.9, 0, 2).s(1).sdg(2)
    circ.block((0, 1), circuit_unitary(Circuit(2).h(0).cnot(0, 1)))
    circ.cblock(2, (0,), circuit_unitary(Circuit(1).h(0)))
    total = Circuit(3).extend(circ).extend(circ.inverse())
    np.testing.assert_allclose(circuit_unitary(total), np.eye(8), atol=1e-12)


def test_generated_circuits_are_unitary():
    rng = np.random.default_rng(9)
    circuits = [
        qft_circuit(4),
        qft_circuit(3).inverse(),
        controlled_Ll_circuit(8, 3),
        phase_tower_circuit(phase_spectrum(8, 5)),
        state_prep_circuit(random_state(3, rng)),
    ]
    for circ in circuits:
        u = circuit_unitary(circ)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12


# ---------------------------------------------------------------------------
# QFT


def test_qft_single_qubit_is_one_hadamard():
    circ = qft_circuit(1)
    assert [g.tag for g in circ.gates] == ["h"]


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_qft_matches_dft_matrix(q):
    assert np.max(np.abs(circuit_unitary(qft_circuit(q)) - dft_matrix(1 << q))) <= 1e-12


def test_qft_inverse_identity():
    for q in (2, 3):
        total = Circuit(q).extend(qft_circuit(q)).extend(qft_circuit(q).inverse())
        np.testing.assert_allclose(circuit_unitary(total), np.eye(1 << q), atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
def test_qft_gate_budget(q):
    gates = qft_circuit(q).gates
    rotations = sum(1 for g in gates if g.tag in ("h", "cphase"))
    assert rotations == q * (q + 1) // 2
    swaps_as_cnots = sum(1 for g in gates if g.tag == "cnot")
    assert swaps_as_cnots == 3 * (q // 2)


# ---------------------------------------------------------------------------
# phase towers and controlled shifts


def test_phase_tower_gate_layout():
    circ = phase_tower_circuit(phase_spectrum(8, 1))
    assert [g.tag for g in circ.gates] == ["phase", "phase", "phase"]
    np.testing.assert_allclose(
        [g.angle for g in circ.gates], [np.pi / 4, np.pi / 2, np.pi], atol=1e-15
    )
    assert phase_tower_circuit(phase_spectrum(8, 0)).gates == []


def test_phase_tower_dense_matches_power():
    n = 8
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    for power in (-3, 2, 5):
        circ = phase_tower_circuit(phase_spectrum(n, power))
        np.testing.assert_allclose(np.diag(circuit_unitary(circ)), omega**power, atol=1e-12)


def test_controlled_shift_action_on_basis_states():
    n = 4
    circ = controlled_Ll_circuit(n, 1)
    for j in range(n):
        moved = run_statevector(circ, basis_state(3, n + j))  # ancilla set
        np.testing.assert_allclose(moved, basis_state(3, n + (j + 1) % n), atol=1e-12)
        idle = run_statevector(circ, basis_state(3, j))  # ancilla clear
        np.testing.assert_allclose(idle, basis_state(3, j), atol=1e-12)


def test_controlled_shift_full_cycle_is_identity():
    n = 8
    dense = circuit_unitary(controlled_Ll_circuit(n, n))
    np.testing.assert_allclose(dense, np.eye(2 * n), atol=1e-12)


@pytest.mark.parametrize("power", [0, 1, 2, 7, 13])
def test_controlled_shift_block_structure(power):
    n = 8
    dense = circuit_unitary(controlled_Ll_circuit(n, power))
    expected = np.eye(2 * n, dtype=complex)
    expected[n:, n:] = np.linalg.matrix_power(build_unit_circulant(n), power % n)
    assert np.max(np.abs(dense - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# Hadamard tests


def test_hadamard_test_identity_same_state():
    prep = uniform_prep_circuit(2)
    assert hadamard_test(Circuit(3), prep, prep, "real") == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_shift_invariant_state():
    # the uniform state is an eigenvector of the cyclic shift with eigenvalue 1
    prep = uniform_prep_circuit(4)
    est = hadamard_test(controlled_Ll_circuit(16, 1), prep, prep, "real")
    assert est == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_against_dense_brackets():
    rng = np.random.default_rng(21)
    shift = build_unit_circulant(16)
    for _ in range(500):
        psi = random_state(4, rng)
        chi = random_state(4, rng)
        power = int(rng.integers(0, 16))
        controlled = controlled_Ll_circuit(16, power)
        left = state_prep_circuit(chi)
        right = state_prep_circuit(psi)
        expected = chi.conj() @ np.linalg.matrix_power(shift, power) @ psi
        re = hadamard_test(controlled, left, right, "real")
        im = hadamard_test(controlled, left, right, "imag")
        assert abs(complex(re, im) - expected) <= 1e-10


def test_hadamard_test_random_word_unitaries():
    rng = np.random.default_rng(33)
    for _ in range(50):
        psi = random_state(2, rng)
        chi = random_state(2, rng)
        u = circuit_unitary(state_prep_circuit(random_state(2, rng)))
        controlled = controlled_word_circuit(u)
        left, right = state_prep_circuit(chi), state_prep_circuit(psi)
        re = hadamard_test(controlled, left, right, "real")
        im = hadamard_test(controlled, left, right, "imag")
        assert abs(complex(re, im) - chi.conj() @ u @ psi) <= 1e-10


def test_hadamard_test_shot_mode_errors():
    prep = uniform_prep_circuit(2)
    with pytest.raises(ShotCountZero):
        hadamard_test(Circuit(3), prep, prep, "real", shots=0)
    with pytest.raises(ValueError):
        hadamard_test(Circuit(3), prep, prep, "modulus")


def test_hadamard_test_shot_statistics():
    rng = np.random.default_rng(2)
    psi = random_state(3, rng)
    prep = state_prep_circuit(np.concatenate([psi, np.zeros(8)]))
    controlled = controlled_Ll_circuit(16, 1)
    exact = hadamard_test(controlled, prep, prep, "real")
    shots = 10**5
    bad = sum(
        abs(hadamard_test(controlled, prep, prep, "real", shots=shots, seed=k) - exact)
        > 3 / np.sqrt(shots)
        for k in range(100)
    )
    assert bad <= 2


# ---------------------------------------------------------------------------
# projector-pair circuits


def _pair_dense(descriptor, n):
    return reconstruct_dense(
        TermList((DecompositionTerm(1.0, descriptor),), n=n, dimension=1)
    )


def test_bell_circuits_diagonal_pair_signs_and_states():
    circuits = bell_pair_circuits(ProjectorPair(((0, 0), (7, 7))), 3)
    assert [sign for _, sign in circuits] == [1, 1]
    plus = run_statevector(circuits[0][0])
    minus = run_statevector(circuits[1][0])
    ghz_plus = np.zeros(8, dtype=complex)
    ghz_plus[0] = ghz_plus[7] = S2
    ghz_minus = np.zeros(8, dtype=complex)
    ghz_minus[0], ghz_minus[7] = S2, -S2
    assert min(np.max(np.abs(plus - ghz_plus)), np.max(np.abs(plus + ghz_plus))) <= 1e-12
    assert min(np.max(np.abs(minus - ghz_minus)), np.max(np.abs(minus + ghz_minus))) <= 1e-12


def test_bell_circuits_edge_pair_signs():
    circuits = bell_pair_circuits(ProjectorPair(((0, 1),), symmetrize=True), 3)
    assert [sign for _, sign in circuits] == [1, -1]
    plus = run_statevector(circuits[0][0])
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[1] = S2
    assert min(np.max(np.abs(plus - expected)), np.max(np.abs(plus + expected))) <= 1e-12


def test_projector_expectation_uniform_state():
    value = projector_expectation(ProjectorPair(((0, 0), (7, 7))), uniform_prep_circuit(3))
    assert value == pytest.approx(0.25, abs=1e-12)


def test_projector_expectation_rejects_non_power_of_two_state():
    with pytest.raises(DimensionMismatch, match="power of two"):
        projector_expectation(ProjectorPair(((0, 0),)), np.ones(6) / np.sqrt(6))


@pytest.mark.parametrize("num_qubits", [2, 3, 4])
def test_projector_expectation_against_dense(num_qubits):
    n = 1 << num_qubits
    rng = np.random.default_rng(num_qubits)
    descriptors = [
        ProjectorPair(((0, 0), (n - 1, n - 1))),
        ProjectorPair(((0, 0),)),
        ProjectorPair(((0, 1),), symmetrize=True),
        ProjectorPair(((n - 1, n - 2),), symmetrize=True),
        ProjectorPair(((1, n - 2),), symmetrize=True),
    ]
    for _ in range(40):
        psi = random_state(num_qubits, rng)
        for descriptor in descriptors:
            expected = float(np.real(psi.conj() @ _pair_dense(descriptor, n) @ psi))
            assert abs(projector_expectation(descriptor, psi) - expected) <= 1e-10


def test_bell_circuits_unsupported_patterns():
    with pytest.raises(UnsupportedPattern):
        bell_pair_circuits("not a pair", 3)
    with pytest.raises(UnsupportedPattern):
        bell_pair_circuits(ProjectorPair(((0, 1),)), 3)  # off-diagonal, not symmetrized
    with pytest.raises(UnsupportedPattern):
        bell_pair_circuits(ProjectorPair(((0, 0), (1, 1), (2, 2))), 3)
    with pytest.raises(UnsupportedPattern):
        bell_pair_circuits(ProjectorPair(((0, 9),), symmetrize=True), 3)


# ---------------------------------------------------------------------------
# sampling


def test_sample_shots_deterministic_and_normalized():
    circ = Circuit(2).h(0)
    a = sample_shots(circ, None, 5000, seed=12)
    b = sample_shots(circ, None, 5000, seed=12)
    np.testing.assert_array_equal(a, b)
    assert a.sum() == 5000


def test_sample_shots_basis_state():
    circ = Circuit(2)
    counts = sample_shots(circ, None, 100, seed=0)
    np.testing.assert_array_equal(counts, [100, 0, 0, 0])


def test_sample_shots_binomial_bound():
    counts = sample_shots(Circuit(1).h(0), None, 10**5, seed=3)
    for index in (0, 1):
        assert abs(counts[index] - 5e4) <= 3 * np.sqrt(0.25 * 10**5)


def test_sample_shots_ghz_support():
    circ = Circuit(3).h(0).cnot(0, 1).cnot(0, 2)
    counts = sample_shots(circ, None, 2000, seed=8)
    assert set(np.flatnonzero(counts)) <= {0b000, 0b111}


def test_sample_shots_zero():
    with pytest.raises(ShotCountZero):
        sample_shots(Circuit(1), None, 0, seed=0)


# ---------------------------------------------------------------------------
# preparation circuits


def test_state_prep_exact():
    rng = np.random.default_rng(6)
    for q in (1, 2, 3, 4):
        target = random_state(q, rng)
        np.testing.assert_allclose(run_statevector(state_prep_circuit(target)), target, atol=1e-12)


def test_basis_prep():
    np.testing.assert_allclose(run_statevector(basis_prep_circuit(3, 5)), basis_state(3, 5))
