"""Ansatz, cost functions, and the variational optimization loop.

Every cost is one functional of two decompositions and a state b:

    E(theta) = <psi|G|psi> - <b|A|psi>^2

assembled term by term by ``Cost``.  Everything here is real: the bands, the
projector pairs and the words are real matrices, b is a real vector, and the
Ry + CNOT ansatz has real amplitudes, so every bracket is a real number.
The linear-system costs take G = A^2 (Poisson) or G = T^T T (banded system);
the matrix-vector cost for a banded T and input state v0 is the G = I case
with A = T_s^T, T_s = T/||T v0||, and b = v0:

    E(theta) = 1 - <v0|T_s^T|psi>^2 = 1 - <psi|T_s|v0>^2

which vanishes exactly when |psi> matches the normalized image T|v0>.

Both modes prepare the ansatz statevector once per evaluation and
evaluate the same estimations, the units of the gate-level circuits
(``circuits``): one Hadamard-test bracket per shift power of a band, one
per distinct amplitude of a projector pair's cross term, one per tensor
word, one all-zeros probability per projector preparation circuit.  Exact
mode takes each estimation at its exact value.  Shot mode draws each from
its exact probability: the ancilla of the Hadamard test of a bracket x reads
0 with probability (1 + x)/2, a projector circuit reads all zeros with
probability <prep|psi>^2, and each is a Binomial(shots, p) draw.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np
import scipy.optimize

from . import decomposition as deco
from .circuits import Circuit, ShotCountZero, bell_pair_circuits, run_statevector
from .linalg import DimensionMismatch, dense_solve, fidelity, integer, normalize, num_qubits
from .poisson import PoissonProblem, boundary_coefficients, build_poisson, prepare_b
from .toeplitz import ToeplitzSpec, classical_toeplitz_matvec


class LengthMismatch(ValueError):
    """Parameter vector length does not match the ansatz."""


class ZeroImage(ValueError):
    """The banded matrix annihilates the input state."""


# ---------------------------------------------------------------------------
# ansatz


@dataclass(frozen=True)
class AnsatzSpec:
    """Hardware-efficient ansatz: per layer, one Ry rotation per qubit
    followed by a nearest-neighbor CNOT chain."""

    num_qubits: int
    depth: int

    def __post_init__(self):
        integer(self.num_qubits, "num_qubits", 1)
        integer(self.depth, "depth", 1)

    @property
    def param_count(self) -> int:
        return self.depth * self.num_qubits


def ansatz_circuit(spec: AnsatzSpec, params: np.ndarray) -> Circuit:
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.param_count,):
        raise LengthMismatch(
            f"expected {spec.param_count} parameters, got {params.shape}"
        )
    circ = Circuit(spec.num_qubits)
    for layer in params.reshape(spec.depth, spec.num_qubits):
        for q, theta in enumerate(layer):
            circ.ry(theta, q)
        for q in range(spec.num_qubits - 1):
            circ.cnot(q, q + 1)
    return circ


def ansatz_state(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """The ansatz statevector, real (float64): Ry and CNOT are real gates."""
    return np.ascontiguousarray(run_statevector(ansatz_circuit(spec, params)).real)


# ---------------------------------------------------------------------------
# cost functions


@dataclass
class TermReport:
    label: str
    value: float
    contribution: float


def default_term_lists(problem: PoissonProblem) -> tuple[deco.TermList, deco.TermList]:
    """The decompositions of A and A^2 that the cost of ``problem`` uses."""
    if problem.dimension == 1:
        if problem.boundary.kind == "dirichlet":
            return deco.decompose_dirichlet_1d(problem.n)
        c, d = boundary_coefficients(problem.boundary, problem.n)
        return deco.decompose_unified_1d(problem.n, c, d)
    return (
        deco.decompose_dirichlet_dd(problem.dimension, problem.n),
        deco.decompose_dirichlet_dd_squared(problem.dimension, problem.n),
    )


def _label(op: deco.Operator) -> str:
    if isinstance(op, ToeplitzSpec):
        return f"band[K={op.band}]"
    if isinstance(op, deco.ProjectorPair):
        return f"proj{list(op.pairs)}"
    return "word[" + "*".join(op.letters) + "]"


class Cost:
    """E(theta) = <psi|G|psi> - <b|A|psi>^2 from the term lists of A and G
    and a real state b.

    The k-th evaluation (k = 0, 1, ...; ``__call__`` and ``report`` alike)
    samples with seed + 7919*k, so a fresh cost's first evaluation is the
    one-shot estimate at ``seed``.  Exact mode (shots=None) draws nothing.
    """

    def __init__(self, a_terms, g_terms, b, ansatz: AnsatzSpec, shots=None, seed=0):
        if np.iscomplexobj(b):
            raise ValueError("b must be a real vector")
        b = np.asarray(b, dtype=float)
        qubits = num_qubits(b)
        grids = [(terms.n, terms.dimension) for terms in (a_terms, g_terms)]
        if a_terms.total_dim != b.size or ansatz.num_qubits != qubits or grids[0] != grids[1]:
            raise DimensionMismatch(
                f"ansatz acts on {ansatz.num_qubits} qubits, A and G on (n, d) = {grids}"
                f" grids and b has {b.size} amplitudes"
            )
        if shots is not None:
            shots = integer(shots, "shots", 1, ShotCountZero)
        # each projector preparation's (real) state
        self._bell_states = {
            term.op: [
                (run_statevector(prep).real, sign)
                for prep, sign in bell_pair_circuits(term.op, qubits)
            ]
            for term in g_terms.terms
            if isinstance(term.op, deco.ProjectorPair)
        }
        self.a_terms, self.g_terms, self.b = a_terms, g_terms, b
        self.ansatz, self.shots, self.seed = ansatz, shots, integer(seed, "seed", 0)
        self._evals = itertools.count()

    def __call__(self, params: np.ndarray) -> float:
        return self.report(params)[0]

    def report(self, params: np.ndarray) -> tuple[float, list[TermReport]]:
        """The cost and one report row per term, the overlap <b|A|psi> last."""
        seed = self.seed + 7919 * next(self._evals)
        psi = ansatz_state(self.ansatz, params)
        if self.shots is None:
            return self._sampled(psi)
        rng = np.random.default_rng(seed)
        shots = self.shots
        return self._sampled(psi, lambda p: rng.binomial(shots, np.clip(p, 0.0, 1.0)) / shots)

    def _sampled(self, psi: np.ndarray, draw=None) -> tuple[float, list[TermReport]]:
        """``_energy`` from the circuits' estimations, each drawn as draw(p),
        the estimated probability of an outcome whose exact probability is p,
        or without ``draw`` taken at its exact value."""
        n, b = self.a_terms.n, self.b
        prob = (lambda p: p) if draw is None else draw  # a projector circuit's all-zeros outcome

        def test(x: float) -> float:
            """The Hadamard test of the bracket x: ancilla bias 2 p0 - 1."""
            return float(x) if draw is None else 2.0 * draw((1.0 + x) / 2.0) - 1.0

        def shift(left: np.ndarray, power: int) -> float:
            """<left|L^power|psi> on the zero-padded circulant register."""
            if power >= 0:
                return test(np.dot(left[power:], psi[: n - power]))
            return test(np.dot(left[: n + power], psi[-power:]))

        def word(left: np.ndarray, op: deco.TensorWord) -> float:
            perm, sign = deco.word_permutation(op.letters, n)
            return test(np.dot(left, sign * psi[perm]))

        def cross(op: deco.Operator) -> float:
            if isinstance(op, ToeplitzSpec):
                return sum(coeff * shift(b, power) for power, coeff in op.coeffs.items())
            if isinstance(op, deco.ProjectorPair):
                amp = cache(lambda j: test(psi[j]))  # <j|psi>, one bracket per amplitude
                total = 0.0
                for i, j in op.pairs:
                    total += b[i] * amp(j)
                    if op.symmetrize and i != j:
                        total += b[j] * amp(i)
                return total
            return word(b, op)

        def same(op: deco.Operator) -> float:
            if isinstance(op, ToeplitzSpec):
                # <psi|L^-p|psi> = <psi|L^p|psi>: one bracket per |power|
                c = op.coeffs
                total = c.get(0, 0.0)
                for power in sorted({abs(p) for p in c} - {0}):
                    total += (c.get(power, 0.0) + c.get(-power, 0.0)) * shift(psi, power)
                return total
            if isinstance(op, deco.ProjectorPair):
                # one all-zeros probability <prep|psi>^2 per preparation circuit
                states = self._bell_states[op]
                return sum(sign * prob(np.dot(st, psi) ** 2) for st, sign in states)
            return word(psi, op)

        return self._energy(cross, same)

    def _energy(self, cross, same) -> tuple[float, list[TermReport]]:
        """<psi|G|psi> - <b|A|psi>^2 from the term values cross(op) =
        <b|op|psi> and same(op) = <psi|op|psi>, one report row per term."""
        report: list[TermReport] = []
        linear = 0.0
        for term in self.a_terms.terms:
            value = cross(term.op)
            contribution = term.coefficient * value
            linear += contribution
            report.append(TermReport(_label(term.op), value, contribution))
        square = 0.0
        for term in self.g_terms.terms:
            if isinstance(term.op, deco.TensorWord) and term.op.is_identity:
                value = 1.0
            else:
                value = same(term.op)
            # a conjugate pair W + W^T: <psi|W^T|psi> = <psi|W|psi>
            contribution = (2 if term.conjugate_pair else 1) * term.coefficient * value
            square += contribution
            report.append(TermReport(_label(term.op), value, contribution))
        report.append(TermReport("<b|A|psi>", linear, -linear**2))
        return float(square - linear**2), report


def make_linear_system_cost(problem: PoissonProblem, ansatz, shots=None, seed=0) -> Cost:
    """The Poisson cost: A and G = A^2 from ``default_term_lists``, b = prepare_b."""
    return Cost(*default_term_lists(problem), prepare_b(problem), ansatz, shots, seed)


def _band_terms(spec: ToeplitzSpec) -> deco.TermList:
    return deco.TermList(
        (deco.DecompositionTerm(1.0, spec),),
        n=spec.n, dimension=1, target="banded-system", bra_equals_ket=False,
    )


def make_toeplitz_system_cost(spec: ToeplitzSpec, b, ansatz, shots=None, seed=0) -> Cost:
    """The banded-system cost: A = T, G = T^T T as the autocorrelation band
    minus corner projector corrections, b normalized."""
    gram = deco.decompose_banded_gram(spec)
    return Cost(_band_terms(spec), gram, normalize(b), ansatz, shots, seed)


def _matvec_scale(spec: ToeplitzSpec, v0) -> tuple[np.ndarray, float]:
    """(normalized v0, ||T v0||)."""
    v0 = normalize(v0)
    image_norm = np.linalg.norm(classical_toeplitz_matvec(spec, v0))
    if image_norm <= 1e-12:
        raise ZeroImage("T annihilates v0; the target state is undefined")
    return v0, image_norm


def make_matvec_cost(spec: ToeplitzSpec, v0, ansatz, shots=None, seed=0) -> Cost:
    """E(theta) = 1 - <psi|T_s|v0>^2 with T_s = T/||T v0||: the cost with
    A = T_s^T, G = I and b = v0, since <v0|T_s^T|psi> = <psi|T_s|v0>."""
    v0, image_norm = _matvec_scale(spec, v0)
    transpose = ToeplitzSpec(spec.n, {-l: t / image_norm for l, t in spec.coeffs.items()})
    identity = deco.TermList(
        (deco.DecompositionTerm(1.0, deco.TensorWord(("I",))),), spec.n, 1, "identity"
    )
    return Cost(_band_terms(transpose), identity, v0, ansatz, shots, seed)


def matvec_target_state(spec: ToeplitzSpec, v0: np.ndarray) -> np.ndarray:
    """Classical normalized image T|v0>, the state the matvec cost selects."""
    v0, image_norm = _matvec_scale(spec, v0)
    return classical_toeplitz_matvec(spec, v0) / image_norm


def dense_hamiltonian(problem: PoissonProblem) -> np.ndarray:
    """Oracle H = A^T (I - |b><b|) A for cross-checking the cost."""
    a = build_poisson(problem)
    b = prepare_b(problem)
    proj = np.eye(problem.total_dim) - np.outer(b, b)
    return a.T @ proj @ a


def solution_fidelity(problem: PoissonProblem, ansatz: AnsatzSpec, params: np.ndarray) -> float:
    """|<x|psi(theta)>| against the dense-solve solution state."""
    a = build_poisson(problem)
    x = normalize(dense_solve(a, np.asarray(prepare_b(problem))))
    return fidelity(x, ansatz_state(ansatz, params))


# ---------------------------------------------------------------------------
# optimization


# a restart stops after STALL_WINDOW evaluations without a gain of STALL_TOL
STALL_WINDOW = 50
STALL_TOL = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 2000
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        integer(self.max_iters, "max_iters", 1)
        integer(self.restarts, "restarts", 1)
        integer(self.seed, "seed", 0)


@dataclass
class TraceRecord:
    iteration: int
    restart: int
    cost: float
    fidelity: float | None = None


@dataclass
class TrainingTrace:
    records: list[TraceRecord] = field(default_factory=list)
    best_params: np.ndarray | None = None
    best_cost: float = np.inf
    best_restart: int = -1

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "restart", "cost", "fidelity"])
            for rec in self.records:
                writer.writerow(
                    [
                        rec.iteration,
                        rec.restart,
                        repr(rec.cost),
                        "" if rec.fidelity is None else repr(rec.fidelity),
                    ]
                )


class _StallStop(Exception):
    pass


def optimize(
    cost,
    spec: AnsatzSpec,
    config: OptimizerConfig,
    reference_state: np.ndarray | None = None,
) -> TrainingTrace:
    """Minimize the cost by Nelder-Mead over `restarts` random initializations.

    The trace records the best-so-far cost after every evaluation (so it
    is monotone within a restart); when a reference state is supplied the
    fidelity of the best-so-far parameters is recorded alongside.
    Deterministic for a fixed config seed.
    """
    trace = TrainingTrace()
    seed_seq = np.random.SeedSequence(config.seed)
    for restart, child in enumerate(seed_seq.spawn(config.restarts)):
        x0 = np.random.default_rng(child).uniform(0.0, 2.0 * np.pi, spec.param_count)
        evals = last_improve = 0
        best, best_x, best_fid = np.inf, x0, None

        def wrapped(x):
            nonlocal evals, last_improve, best, best_x, best_fid
            value = cost(x)
            evals += 1
            if value < best - STALL_TOL:
                last_improve = evals
            if value < best:
                best, best_x = value, np.array(x, dtype=float)
                if reference_state is not None:
                    best_fid = fidelity(reference_state, ansatz_state(spec, best_x))
            trace.records.append(TraceRecord(evals, restart, best, best_fid))
            if evals - last_improve > STALL_WINDOW or evals >= config.max_iters:
                raise _StallStop
            return value

        try:
            scipy.optimize.minimize(
                wrapped,
                x0,
                method="Nelder-Mead",
                options={
                    "maxiter": config.max_iters,
                    "maxfev": config.max_iters,
                    "xatol": 1e-12,
                    "fatol": 1e-14,
                },
            )
        except _StallStop:
            pass

        if best < trace.best_cost:
            trace.best_cost = float(best)
            trace.best_params = best_x
            trace.best_restart = restart
    return trace
