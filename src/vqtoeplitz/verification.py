"""Invariant suite behind the `verify` command.

Each check reconstructs something two independent ways (circuit vs dense
oracle, term list vs direct construction) and reports the max error
against a fixed tolerance.  Before optimizing, ``solve-poisson`` runs the
reconstruction part for its own term lists; the ``toeplitz`` commands do
not (tests/test_decomposition.py checks their Gram list against T^T T).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import decomposition as deco
from .circuits import (
    circuit_unitary,
    controlled_Ll_circuit,
    phase_tower_circuit,
    projector_expectation,
    qft_circuit,
    run_statevector,
)
from .linalg import build_unit_circulant, dft_matrix, random_state
from .poisson import BoundaryCondition, PoissonProblem, poisson_sparse
from .toeplitz import ToeplitzSpec, phase_spectrum, phase_spectrum_diagonal, toeplitz_to_dense
from .vqa import (AnsatzSpec, ansatz_circuit, ansatz_state, default_term_lists,
                  dense_hamiltonian, make_linear_system_cost)


SAMPLES = 40  # random bands per toeplitz check
MAX_BAND = 3  # widest random band
QFT_QUBITS = 5  # QFT circuits on 1..QFT_QUBITS qubits
PROJECTOR_SAMPLES = 10  # random states per projector-pair circuit check
COST_SAMPLES = 3  # random parameter points per cost-vs-dense problem
GATE_TOL = 1e-12  # the pre-solve gate's tolerance on a term-list reconstruction


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.max_error <= self.tolerance)

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["pass"] = self.passed
        return out


def _random_banded_spec(n: int, rng: np.random.Generator) -> ToeplitzSpec:
    band = int(rng.integers(0, MAX_BAND + 1))
    coeffs = {}
    for l in range(-band, band + 1):
        value = rng.standard_normal()
        if abs(value) > 0.05:
            coeffs[l] = value
    coeffs.setdefault(0, 1.0)
    return ToeplitzSpec(n, coeffs)


def _check_dft_unitarity() -> CheckResult:
    err = 0.0
    for n in (2, 3, 4, 8, 16, 64):
        f = dft_matrix(n)
        err = np.maximum(err, np.max(np.abs(f.conj().T @ f - np.eye(n))))
    return CheckResult("linalg/dft-unitarity", float(err), 1e-12)


def _check_shift_diagonalization() -> CheckResult:
    err = 0.0
    for n in (2, 4, 8, 16):
        f = dft_matrix(n)
        d = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
        err = np.maximum(err, np.max(np.abs(f.conj().T @ d @ f - build_unit_circulant(n))))
    return CheckResult("linalg/shift-diagonalization", float(err), 1e-12)


def _check_embedding(rng) -> CheckResult:
    """T is the top-left n x n block of sum_l t_l L^l, L the shift on 2n points."""
    err = 0.0
    for _ in range(SAMPLES):
        n = int(rng.choice([4, 8, 16]))
        spec = _random_banded_spec(n, rng)
        shift = build_unit_circulant(2 * n)
        padded = sum(
            t * np.linalg.matrix_power(shift, l % (2 * n)) for l, t in spec.coeffs.items()
        )
        err = np.maximum(err, np.max(np.abs(padded[:n, :n] - toeplitz_to_dense(spec))))
    return CheckResult("toeplitz/embedding-top-left-block", float(err), 0.0)


def _check_spectral_identity(rng) -> CheckResult:
    """The same sum with each L^l as F^dag (phase tower diagonal) F on 2n points."""
    err = 0.0
    for _ in range(SAMPLES):
        n = int(rng.choice([4, 8, 16]))
        spec = _random_banded_spec(n, rng)
        diagonal = sum(
            t * phase_spectrum_diagonal(phase_spectrum(2 * n, l)) for l, t in spec.coeffs.items()
        )
        f = dft_matrix(2 * n)
        padded = f.conj().T @ np.diag(diagonal) @ f
        err = np.maximum(err, np.max(np.abs(padded[:n, :n] - toeplitz_to_dense(spec))))
    return CheckResult("toeplitz/spectral-identity", float(err), 1e-12)


def _check_phase_towers() -> CheckResult:
    err = 0.0
    for n in (4, 8, 16):
        omega_powers = np.exp(2j * np.pi * np.arange(n) / n)
        for power in range(-n, n + 1):
            diag = phase_spectrum_diagonal(phase_spectrum(n, power))
            err = np.maximum(err, np.max(np.abs(diag - omega_powers**power)))
    return CheckResult("toeplitz/phase-tower-diagonals", float(err), 1e-12)


def _decomposition_checks(rng) -> list[CheckResult]:
    """Each family's term lists rebuild its operator and the square, checked
    by the pre-solve gate ``verify_problem_terms``."""
    cases = {"dirichlet-1d": [], "unified-1d": [], "dirichlet-dd": []}
    for q in (2, 3, 4):  # n = 4, 8, 16
        n = 1 << q
        cases["dirichlet-1d"].append((PoissonProblem(1, q), deco.decompose_dirichlet_1d(n)))
        c, d = rng.uniform(0.0, 1.0, 2)  # the corner perturbations of this boundary
        bc = BoundaryCondition.unified(c, (1 - c) * (n + 1), d, (1 - d) * (n + 1))
        unified = PoissonProblem(1, q, bc)
        cases["unified-1d"].append((unified, default_term_lists(unified)))
    for dim, q in ((1, 2), (2, 2), (2, 1), (3, 1)):
        n = 1 << q
        terms = deco.decompose_dirichlet_dd(dim, n), deco.decompose_dirichlet_dd_squared(dim, n)
        cases["dirichlet-dd"].append((PoissonProblem(dim, q), terms))
    results = [
        CheckResult(f"decompose/{name}",
                    float(np.max([verify_problem_terms(*case) for case in family])), GATE_TOL)
        for name, family in cases.items()
    ]
    # the paper's counts, in the table's order: 5 and 6 in 1-D, 4d + 1 and 12d^2 in d-D
    paper = [5, 6] + [k for dim in (1, 2, 3) for k in (4 * dim + 1, 12 * dim * dim)]
    count_err = sum(abs(a - b) for a, b in zip(term_count_table().values(), paper, strict=True))
    results.append(CheckResult("decompose/bracket-counts", float(count_err), 0.0))
    return results


def _check_qft() -> CheckResult:
    err = 0.0
    for q in range(1, QFT_QUBITS + 1):
        err = np.maximum(err, np.max(np.abs(circuit_unitary(qft_circuit(q)) - dft_matrix(1 << q))))
    return CheckResult("circuits/qft-vs-dft", float(err), 1e-12)


def _check_controlled_shift() -> CheckResult:
    err = 0.0
    for n in (4, 8):
        shift = build_unit_circulant(n)
        for power in (0, 1, 2, n - 1, n):
            dense = circuit_unitary(controlled_Ll_circuit(n, power))
            expected = np.eye(2 * n, dtype=complex)
            expected[n:, n:] = np.linalg.matrix_power(shift, power)
            err = np.maximum(err, np.max(np.abs(dense - expected)))
    return CheckResult("circuits/controlled-shift-blocks", float(err), 1e-12)


def _check_phase_tower_circuits() -> CheckResult:
    err = 0.0
    for n in (4, 8):
        omega_powers = np.exp(2j * np.pi * np.arange(n) / n)
        for power in (-2, -1, 0, 1, 2, n):
            circ = phase_tower_circuit(phase_spectrum(n, power))
            err = np.maximum(
                err, np.max(np.abs(np.diag(circuit_unitary(circ)) - omega_powers**power))
            )
    return CheckResult("circuits/phase-tower-circuits", float(err), 1e-12)


def _check_projector_circuits(rng) -> CheckResult:
    err = 0.0
    n = 8
    descriptors = [
        deco.ProjectorPair(((0, 0), (n - 1, n - 1))),
        deco.ProjectorPair(((0, 0),)),
        deco.ProjectorPair(((0, 1),), symmetrize=True),
        deco.ProjectorPair(((n - 1, n - 2),), symmetrize=True),
    ]
    for _ in range(PROJECTOR_SAMPLES):
        psi = random_state(3, rng)
        for descriptor in descriptors:
            dense = deco.reconstruct_dense(
                deco.TermList((deco.DecompositionTerm(1.0, descriptor),), n, 1)
            )
            expected = float(np.real(psi.conj() @ dense @ psi))
            err = np.maximum(err, abs(projector_expectation(descriptor, psi) - expected))
    return CheckResult("circuits/projector-pairs", float(err), 1e-10)


def _check_cost_vs_dense(rng) -> CheckResult:
    err = 0.0
    cases = [
        PoissonProblem(1, 3),
        PoissonProblem(1, 3, BoundaryCondition.unified(1.0, 1.0, 1.0, 3.0)),
        PoissonProblem(2, 1),
    ]
    for problem in cases:
        ansatz = AnsatzSpec(problem.total_qubits, depth=2)
        h = dense_hamiltonian(problem)
        cost = make_linear_system_cost(problem, ansatz)
        for _ in range(COST_SAMPLES):
            params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
            energy = cost(params)
            psi = ansatz_state(ansatz, params)
            expected = float(psi @ h @ psi)
            err = np.maximum(err, abs(energy - expected))
    return CheckResult("vqa/cost-vs-dense-hamiltonian", float(err), 1e-10)


def _check_ansatz_kernel(rng) -> CheckResult:
    """The state every evaluation uses, from ``ansatz_state``'s rotation
    blocks and gathers, against the gate-level circuit."""
    err = 0.0
    for qubits in range(1, 8):
        ansatz = AnsatzSpec(qubits, depth=2)
        params = rng.uniform(0, 2 * np.pi, ansatz.param_count)
        reference = run_statevector(ansatz_circuit(ansatz, params))
        err = np.maximum(err, np.max(np.abs(ansatz_state(ansatz, params) - reference)))
    return CheckResult("vqa/ansatz-kernel-vs-circuit", float(err), 1e-14)


def run_verification(seed: int = 0) -> tuple[list[CheckResult], bool]:
    """Full invariant suite; returns (results, all_passed)."""
    rng = np.random.default_rng(seed)
    results = [
        _check_dft_unitarity(),
        _check_shift_diagonalization(),
        _check_embedding(rng),
        _check_spectral_identity(rng),
        _check_phase_towers(),
    ]
    results.extend(_decomposition_checks(rng))
    results.extend(
        [
            _check_qft(),
            _check_controlled_shift(),
            _check_phase_tower_circuits(),
            _check_projector_circuits(rng),
            _check_cost_vs_dense(rng),
            _check_ansatz_kernel(rng),
        ]
    )
    return results, all(r.passed for r in results)


def verify_problem_terms(problem: PoissonProblem, term_lists) -> float:
    """Max reconstruction error of a problem's own term lists (pre-solve
    gate), compared entry by entry as sparse matrices; NaN if either list
    rebuilds a NaN."""
    a_terms, a2_terms = term_lists
    a = poisson_sparse(problem)
    return float(np.max([deco.reconstruct_sparse(a_terms).max_abs_difference(a),
                         deco.reconstruct_sparse(a2_terms).max_abs_difference(a @ a)]))


def term_count_table() -> dict[str, int]:
    """The headline bracket counts for the standard decompositions."""
    a1, a2 = deco.decompose_unified_1d(8, 0.5, 0.5)
    table = {
        "unified-1d-linear": deco.count_terms(a1),
        "unified-1d-squared": deco.count_terms(a2),
    }
    for dim in (1, 2, 3):
        table[f"dirichlet-{dim}d-linear"] = deco.count_terms(deco.decompose_dirichlet_dd(dim, 4))
        table[f"dirichlet-{dim}d-squared"] = deco.count_terms(
            deco.decompose_dirichlet_dd_squared(dim, 4)
        )
    return table
