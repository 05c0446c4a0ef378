"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

import vqtoeplitz.decomposition as deco
from vqtoeplitz.circuits import (
    circuit_unitary,
    controlled_Ll_circuit,
    hadamard_test,
    phase_tower_circuit,
    projector_expectation,
    qft_circuit,
    state_prep_circuit,
)
from vqtoeplitz.linalg import (
    build_unit_circulant,
    dense_solve,
    dft_matrix,
    fidelity,
    normalize,
    random_state,
)
from vqtoeplitz.poisson import (
    BoundaryCondition,
    PoissonProblem,
    build_poisson_1d,
    build_poisson_dd,
    prepare_b,
)
from vqtoeplitz.toeplitz import ToeplitzSpec, phase_spectrum, phase_spectrum_diagonal
from vqtoeplitz.vqa import (
    AnsatzSpec,
    OptimizerConfig,
    ansatz_state,
    dense_hamiltonian,
    make_linear_system_cost,
    make_matvec_cost,
    matvec_target_state,
    optimize,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert passed, f"criterion {criterion}: {detail}"


def _dirichlet_dense(n):
    return build_poisson_1d(PoissonProblem(1, n.bit_length() - 1))


def test_criterion_1_decomposition_exactness():
    """Reconstructions match dense oracles to 1e-12 in under 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        dense = _dirichlet_dense(n)
        a_terms, a2_terms = deco.decompose_dirichlet_1d(n)
        worst = max(worst, np.max(np.abs(deco.reconstruct_dense(a_terms) - dense)))
        worst = max(worst, np.max(np.abs(deco.reconstruct_dense(a2_terms) - dense @ dense)))
        c, d = rng.uniform(0.0, 1.0, 2)
        u_terms, u2_terms = deco.decompose_unified_1d(n, c, d)
        udense = dense.copy()
        udense[0, 0] -= c
        udense[n - 1, n - 1] -= d
        worst = max(worst, np.max(np.abs(deco.reconstruct_dense(u_terms) - udense)))
        worst = max(worst, np.max(np.abs(deco.reconstruct_dense(u2_terms) - udense @ udense)))
    for dim in (1, 2, 3):
        for n in (4, 8, 16):
            if n**dim > 4096:
                continue
            problem = PoissonProblem(dim, n.bit_length() - 1)
            dense = build_poisson_dd(problem)
            terms = deco.decompose_dirichlet_dd(dim, n)
            squared = deco.decompose_dirichlet_dd_squared(dim, n)
            worst = max(worst, np.max(np.abs(deco.reconstruct_dense(terms) - dense)))
            worst = max(worst, np.max(np.abs(deco.reconstruct_dense(squared) - dense @ dense)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"max reconstruction error {worst:.2e} (tol 1e-12), runtime {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_term_counts():
    """Bracket counts are exactly 5, 6, 4d+1, 12d^2."""
    a_terms, a2_terms = deco.decompose_unified_1d(8, 0.35, 0.65)
    counts = [deco.count_terms(a_terms), deco.count_terms(a2_terms)]
    expected = [5, 6]
    for dim in (1, 2, 3):
        counts += [
            deco.count_terms(deco.decompose_dirichlet_dd(dim, 4)),
            deco.count_terms(deco.decompose_dirichlet_dd_squared(dim, 4)),
        ]
        expected += [4 * dim + 1, 12 * dim * dim]
    _report(2, counts == expected, f"counts {counts} == {expected}")


def test_criterion_3_estimator_correctness():
    """Every estimator family matches dense brackets to 1e-10 on 200 states."""
    rng = np.random.default_rng(202)
    n = 8
    shift = build_unit_circulant(2 * n)
    worst = 0.0

    # shift-power brackets between distinct embedded states (overlap estimator)
    for _ in range(200):
        psi = np.concatenate([random_state(3, rng), np.zeros(n)])
        chi = np.concatenate([random_state(3, rng), np.zeros(n)])
        power = int(rng.choice([0, 1, 2, 2 * n - 2, 2 * n - 1]))
        controlled = controlled_Ll_circuit(2 * n, power)
        left, right = state_prep_circuit(chi), state_prep_circuit(psi)
        est = complex(
            hadamard_test(controlled, left, right, "real"),
            hadamard_test(controlled, left, right, "imag"),
        )
        exact = chi.conj() @ np.linalg.matrix_power(shift, power) @ psi
        worst = max(worst, abs(est - exact))

    # same-state shift brackets with conjugate folding
    for _ in range(200):
        emb = np.concatenate([random_state(3, rng), np.zeros(n)])
        prep = state_prep_circuit(emb)
        for power in (1, 2):
            controlled = controlled_Ll_circuit(2 * n, power)
            est = complex(
                hadamard_test(controlled, prep, prep, "real"),
                hadamard_test(controlled, prep, prep, "imag"),
            )
            exact = emb.conj() @ np.linalg.matrix_power(shift, power) @ emb
            worst = max(worst, abs(est - exact))
            worst = max(
                worst, abs(np.conj(est) - emb.conj() @ np.linalg.matrix_power(shift, 2 * n - power) @ emb)
            )

    # projector-pair circuits
    descriptors = [
        deco.ProjectorPair(((0, 0), (n - 1, n - 1))),
        deco.ProjectorPair(((0, 1),), symmetrize=True),
        deco.ProjectorPair(((n - 1, n - 2),), symmetrize=True),
    ]
    for _ in range(200):
        psi = random_state(3, rng)
        for descriptor in descriptors:
            dense = deco.reconstruct_dense(
                deco.TermList((deco.DecompositionTerm(1.0, descriptor),), n, 1)
            )
            exact = float(np.real(psi.conj() @ dense @ psi))
            worst = max(worst, abs(projector_expectation(descriptor, psi) - exact))

    # tensor-word brackets (same-site and cross words of the 2-D square)
    word_terms = [
        t for t in deco.decompose_dirichlet_dd_squared(2, 4).terms
        if isinstance(t.op, deco.TensorWord) and not t.op.is_identity
    ]
    from vqtoeplitz.circuits import controlled_word_circuit

    for k in range(200):
        psi = random_state(4, rng)
        chi = random_state(4, rng)
        term = word_terms[k % len(word_terms)]
        dense = deco.word_to_dense(term.op, 4)
        controlled = controlled_word_circuit(dense)
        left, right = state_prep_circuit(chi), state_prep_circuit(psi)
        est = complex(
            hadamard_test(controlled, left, right, "real"),
            hadamard_test(controlled, left, right, "imag"),
        )
        worst = max(worst, abs(est - chi.conj() @ dense @ psi))

    _report(3, worst <= 1e-10, f"max estimator error {worst:.2e} (tol 1e-10)")


def test_criterion_4_cost_equivalence():
    """Assembled E(theta) equals dense <psi|H|psi> to 1e-10, 200 draws per family."""
    rng = np.random.default_rng(303)
    worst = 0.0
    families = [
        PoissonProblem(1, 3),
        PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0)),
        PoissonProblem(2, 2),
    ]
    for problem in families:
        ansatz = AnsatzSpec(problem.total_qubits, 2)
        h = dense_hamiltonian(problem)
        terms = None
        cost = make_linear_system_cost(problem, ansatz)
        for _ in range(200):
            params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
            energy = cost(params)
            psi = ansatz_state(ansatz, params)
            exact = float(np.real(psi.conj() @ h @ psi))
            worst = max(worst, abs(energy - exact))
    _report(4, worst <= 1e-10, f"max cost error {worst:.2e} (tol 1e-10) over 3 families")


def test_criterion_5_paper_experiment():
    """1-D Dirichlet, 3 qubits, uniform rhs, ry depth 2, 5 restarts: fidelity > 0.99."""
    t0 = time.perf_counter()
    problem = PoissonProblem(1, 3)
    ansatz = AnsatzSpec(3, 2)
    cost = make_linear_system_cost(problem, ansatz)
    x = normalize(dense_solve(build_poisson_1d(problem), np.asarray(prepare_b(problem))))
    trace = optimize(cost, ansatz, OptimizerConfig(restarts=5, seed=1), reference_state=x)
    best_fid = fidelity(x, ansatz_state(ansatz, trace.best_params))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        best_fid > 0.99 and trace.best_cost < 1e-3 and elapsed < 120.0,
        f"fidelity {best_fid:.6f} (> 0.99), best cost {trace.best_cost:.2e} (< 1e-3), "
        f"runtime {elapsed:.0f}s (< 120 s)",
    )


def test_criterion_6_matvec():
    """20 random banded specs (n=8, K<=2): optimized fidelity > 0.99, E < 1e-3."""
    rng = np.random.default_rng(404)
    ansatz = AnsatzSpec(3, 3)
    worst_fid, worst_cost = 1.0, 0.0
    for trial in range(20):
        band = int(rng.integers(0, 3))
        coeffs = {l: float(rng.standard_normal()) for l in range(-band, band + 1)}
        coeffs[0] = coeffs.get(0, 0.0) + 1.0
        spec = ToeplitzSpec(8, coeffs)
        v0 = normalize(rng.standard_normal(8))
        target = matvec_target_state(spec, v0)
        cost = make_matvec_cost(spec, v0, ansatz)
        trace = optimize(cost, ansatz, OptimizerConfig(restarts=5, seed=1000 + trial))
        fid = fidelity(target, ansatz_state(ansatz, trace.best_params))
        worst_fid = min(worst_fid, fid)
        worst_cost = max(worst_cost, trace.best_cost)
    _report(
        6,
        worst_fid > 0.99 and worst_cost < 1e-3,
        f"worst fidelity {worst_fid:.6f} (> 0.99), worst best-cost {worst_cost:.2e} (< 1e-3)",
    )


def test_criterion_7_shot_statistics():
    """Bracket components at 1e5 shots: within 3/sqrt(shots) in >= 99% of 1000 trials."""
    rng = np.random.default_rng(505)
    n = 8
    shots = 10**5
    bound = 3.0 / np.sqrt(shots)
    psi = random_state(3, rng)
    emb = np.concatenate([psi, np.zeros(n)])
    prep = state_prep_circuit(emb)
    controlled = controlled_Ll_circuit(2 * n, 1)

    bad = 0
    trials = 0
    for part in ("real", "imag"):
        exact = hadamard_test(controlled, prep, prep, part)
        for k in range(500):
            est = hadamard_test(controlled, prep, prep, part, shots=shots, seed=k)
            bad += abs(est - exact) > bound
            trials += 1

    descriptor = deco.ProjectorPair(((0, 1),), symmetrize=True)
    dense = deco.reconstruct_dense(
        deco.TermList((deco.DecompositionTerm(1.0, descriptor),), n, 1)
    )
    exact = float(np.real(psi.conj() @ dense @ psi))
    for k in range(1000):
        est = projector_expectation(descriptor, psi, shots=shots, seed=10_000 + 4 * k)
        # two circuit probabilities, each within 1.5/sqrt(shots) at 3 sigma
        bad += abs(est - exact) > bound
        trials += 1

    fraction = 1.0 - bad / trials
    _report(7, fraction >= 0.99, f"{fraction:.4f} of {trials} estimates within {bound:.4f}")


def test_criterion_8_qft_and_phase_towers():
    """Dense circuit realizations match the DFT matrix and diagonal powers."""
    worst = 0.0
    for q in range(1, 6):
        worst = max(
            worst, np.max(np.abs(circuit_unitary(qft_circuit(q)) - dft_matrix(1 << q)))
        )
    n = 32
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    for power in range(-n, n + 1):
        spectrum = phase_spectrum(n, power)
        worst = max(worst, np.max(np.abs(phase_spectrum_diagonal(spectrum) - omega**power)))
        circ = phase_tower_circuit(spectrum)
        worst = max(worst, np.max(np.abs(np.diag(circuit_unitary(circ)) - omega**power)))
    _report(8, worst <= 1e-12, f"max structural error {worst:.2e} (tol 1e-12, up to 5 qubits)")


def test_criterion_9_qft_gate_budget():
    """qft_circuit emits exactly q(q+1)/2 Hadamard/controlled-phase gates plus swaps."""
    ok = True
    detail = []
    for q in range(1, 9):
        gates = qft_circuit(q).gates
        rotations = sum(1 for g in gates if g.tag in ("h", "cphase"))
        cnots = sum(1 for g in gates if g.tag == "cnot")
        ok = ok and rotations == q * (q + 1) // 2 and cnots == 3 * (q // 2)
        detail.append(f"q={q}:{rotations}+{cnots}")
    _report(9, ok, "gate counts q(q+1)/2 rotations + 3*floor(q/2) swap CNOTs: " + " ".join(detail))
