"""Ansatz, cost functions, and the variational optimization loop.

The linear-system cost is

    E(theta) = <psi|A^2|psi> - |<b|A|psi>|^2

assembled term by term from a decomposition.  Exact mode prepares the
ansatz statevector once per evaluation and takes each term as the inner
product np.vdot(left, apply(op, right)) that a Hadamard test's ancilla bias
estimates.  Shot mode samples the gate-level circuits: banded parts through
their circulant embedding (one extra register qubit plus the test ancilla),
projector pairs through basis-change probability circuits, tensor words
through controlled-block Hadamard tests.

The matrix-vector cost for a banded T and input state v0 is

    E(theta) = 1 - |<0,psi| C_{T/||T v0||} |0,v0>|^2 = 1 - |<psi| T/||T v0|| |v0>|^2

which vanishes exactly when |psi> matches the normalized image T|v0>.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.optimize

from . import decomposition as deco
from .circuits import (
    Circuit,
    basis_prep_circuit,
    bell_pair_circuits,
    bracket,
    circuit_unitary,
    controlled_Ll_circuit,
    controlled_word_circuit,
    projector_expectation,
    run_statevector,
    state_prep_circuit,
    uniform_prep_circuit,
)
from .linalg import DimensionMismatch, dense_solve, fidelity, normalize
from .poisson import PoissonProblem, build_poisson_1d, build_poisson_dd, prepare_b
from .toeplitz import (
    ToeplitzSpec,
    circulant_expectation_terms,
    classical_toeplitz_matvec,
    embed_in_circulant,
)


class LengthMismatch(ValueError):
    """Parameter vector length does not match the ansatz."""


class ZeroImage(ValueError):
    """The banded matrix annihilates the input state."""


# ---------------------------------------------------------------------------
# ansatz


@dataclass(frozen=True)
class AnsatzSpec:
    """Hardware-efficient ansatz: per layer, one rotation per qubit followed
    by a nearest-neighbor entangler chain."""

    num_qubits: int
    depth: int
    rotation: str = "ry"  # "ry" | "rz-ry-rz"
    entangler: str = "cnot"  # "cnot" | "cz"

    def __post_init__(self):
        if self.rotation not in ("ry", "rz-ry-rz"):
            raise ValueError(f"unknown rotation {self.rotation!r}")
        if self.entangler not in ("cnot", "cz"):
            raise ValueError(f"unknown entangler {self.entangler!r}")
        if self.depth < 1 or self.num_qubits < 1:
            raise ValueError("depth and num_qubits must be >= 1")

    @property
    def params_per_layer(self) -> int:
        return self.num_qubits * (3 if self.rotation == "rz-ry-rz" else 1)

    @property
    def param_count(self) -> int:
        return self.depth * self.params_per_layer


def ansatz_circuit(spec: AnsatzSpec, params: np.ndarray) -> Circuit:
    params = np.asarray(params, dtype=float)
    if params.shape != (spec.param_count,):
        raise LengthMismatch(
            f"expected {spec.param_count} parameters, got {params.shape}"
        )
    circ = Circuit(spec.num_qubits)
    k = 0
    for _ in range(spec.depth):
        for q in range(spec.num_qubits):
            if spec.rotation == "ry":
                circ.ry(params[k], q)
                k += 1
            else:
                circ.rz(params[k], q)
                circ.ry(params[k + 1], q)
                circ.rz(params[k + 2], q)
                k += 3
        for q in range(spec.num_qubits - 1):
            if spec.entangler == "cnot":
                circ.cnot(q, q + 1)
            else:
                circ.cz(q, q + 1)
    return circ


def ansatz_state(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    return run_statevector(ansatz_circuit(spec, params))


# ---------------------------------------------------------------------------
# exact engine: statevector inner products


@lru_cache(maxsize=None)
def _cached_word_unitary(letters: tuple[str, ...], n: int) -> np.ndarray:
    return deco.word_to_dense(deco.TensorWord(letters), n)


def _apply_operator(op: deco.Operator, n: int, v: np.ndarray) -> np.ndarray:
    """op|v> for one decomposition descriptor (n = grid points per axis)."""
    if isinstance(op, ToeplitzSpec):
        return classical_toeplitz_matvec(op, v)
    if isinstance(op, deco.ProjectorPair):
        out = np.zeros_like(v)
        for i, j in op.pairs:
            out[i] += v[j]
            if op.symmetrize and i != j:
                out[j] += v[i]
        return out
    return _cached_word_unitary(op.letters, n) @ v


# ---------------------------------------------------------------------------
# circuit engine: shot sampling, and with shots=None the gate-level reference


@lru_cache(maxsize=None)
def _cached_shift_circuit(n: int, power: int) -> Circuit:
    # Collapse the theta-independent controlled-shift circuit to a single
    # block gate; the unitary is identical and the simulator applies it in
    # one step instead of ~40.
    structured = controlled_Ll_circuit(n, power)
    collapsed = Circuit(structured.num_qubits)
    return collapsed.block(tuple(range(structured.num_qubits)), circuit_unitary(structured))


@dataclass
class TermReport:
    label: str
    value: complex
    contribution: complex


def _embed_prep(unitary: np.ndarray) -> np.ndarray:
    """Lift a system preparation to the doubled register (extra top qubit idle)."""
    return np.kron(np.eye(2, dtype=complex), unitary)


class _BracketEngine:
    """Evaluates individual decomposition terms as circuit estimates."""

    def __init__(self, shots: int | None, seed: int):
        self.shots = shots
        self._seed = int(seed)
        self._counter = 0

    def _draw(self, k: int = 2) -> int:
        base = self._seed + 104729 * self._counter
        self._counter += k
        return base

    def complex_bracket(self, n_system, controlled, left, right) -> complex:
        return bracket(n_system, controlled, left, right, self.shots, self._draw())

    def toeplitz_cross(self, spec: ToeplitzSpec, left_emb, right_emb) -> complex:
        """<left|T|right> via the embedded circulant, distinct states."""
        two_n = 2 * spec.n
        qubits = two_n.bit_length() - 1
        total = 0.0 + 0.0j
        for coeff, power in circulant_expectation_terms(embed_in_circulant(spec)):
            controlled = _cached_shift_circuit(two_n, power % two_n)
            total += coeff * self.complex_bracket(qubits, controlled, left_emb, right_emb)
        return total

    def toeplitz_same(self, spec: ToeplitzSpec, prep_emb) -> complex:
        """<psi|T|psi>: opposite shifts fold onto complex conjugates."""
        two_n = 2 * spec.n
        qubits = two_n.bit_length() - 1
        by_power = dict()
        for coeff, power in circulant_expectation_terms(embed_in_circulant(spec)):
            by_power[power] = coeff
        total = complex(by_power.get(0, 0.0))
        for power in sorted(p for p in by_power if p > 0):
            controlled = _cached_shift_circuit(two_n, power)
            z = self.complex_bracket(qubits, controlled, prep_emb, prep_emb)
            total += by_power[power] * z + by_power.get(-power, 0.0) * np.conj(z)
        for power in sorted(p for p in by_power if p < 0):
            if -power not in by_power:  # unpaired negative offset
                controlled = _cached_shift_circuit(two_n, -power)
                z = self.complex_bracket(qubits, controlled, prep_emb, prep_emb)
                total += by_power[power] * np.conj(z)
        return total

    def word_bracket(self, word: deco.TensorWord, n: int, n_system: int, left, right) -> complex:
        if word.is_identity:
            controlled = Circuit(n_system + 1)
        else:
            controlled = controlled_word_circuit(n_system, _cached_word_unitary(word.letters, n))
        return self.complex_bracket(n_system, controlled, left, right)

    def projector_same(self, pp: deco.ProjectorPair, psi_state: np.ndarray) -> float:
        return projector_expectation(pp, psi_state, self.shots, self._draw(4))

    def projector_cross(self, pp: deco.ProjectorPair, b_vec, n_system, right) -> complex:
        """<b|M|psi> for a projector pair: classically known b amplitudes
        weight single-amplitude brackets <j|psi>."""
        total = 0.0 + 0.0j
        identity = Circuit(n_system + 1)
        amp_cache: dict[int, complex] = {}

        def amp(j: int) -> complex:
            if j not in amp_cache:
                amp_cache[j] = self.complex_bracket(
                    n_system, identity, basis_prep_circuit(n_system, j), right
                )
            return amp_cache[j]

        for i, j in pp.pairs:
            total += np.conj(b_vec[i]) * amp(j)
            if pp.symmetrize and i != j:
                total += np.conj(b_vec[j]) * amp(i)
        return total


# ---------------------------------------------------------------------------
# cost functions


def default_term_lists(problem: PoissonProblem) -> tuple[deco.TermList, deco.TermList]:
    """The decompositions of A and A^2 that the cost of ``problem`` uses."""
    if problem.dimension == 1:
        if problem.boundary.kind == "dirichlet":
            return deco.decompose_dirichlet_1d(problem.n)
        from .poisson import boundary_coefficients

        c, d = boundary_coefficients(problem.boundary, problem.n)
        return deco.decompose_unified_1d(problem.n, c, d)
    return (
        deco.decompose_dirichlet_dd(problem.dimension, problem.n),
        deco.decompose_dirichlet_dd_squared(problem.dimension, problem.n),
    )


def _b_prep_circuit(b_vec: np.ndarray, num_qubits: int) -> Circuit:
    # H^{otimes N} prepares the constant *positive* state only; any other b,
    # a constant negative one included, is prepared from its amplitudes.
    if np.allclose(b_vec, 1.0 / np.sqrt(b_vec.size)):
        return uniform_prep_circuit(num_qubits)
    return state_prep_circuit(b_vec)


def _label(op: deco.Operator) -> str:
    if isinstance(op, ToeplitzSpec):
        return f"band[K={op.band}]"
    if isinstance(op, deco.ProjectorPair):
        return f"proj{list(op.pairs)}"
    return "word[" + "*".join(op.letters) + "]"


class _SystemCostContext:
    """Theta-independent pieces of a linear-system cost."""

    def __init__(self, a_terms, a2_terms, b_vec, num_qubits):
        self.a_terms = a_terms
        self.a2_terms = a2_terms
        self.b_vec = b_vec
        self.num_qubits = num_qubits
        # Exact mode measures nothing the shot circuits could not.
        for term in a2_terms.terms:
            if isinstance(term.op, deco.ProjectorPair):
                bell_pair_circuits(term.op, num_qubits)

    @cached_property
    def b_u(self) -> np.ndarray:
        return circuit_unitary(_b_prep_circuit(self.b_vec, self.num_qubits))

    def circuit_terms(self, engine: _BracketEngine, ansatz, params):
        """(cross, same) for ``energy`` as circuit estimates from ``engine``."""
        n, n_system, b_u = self.a_terms.n, self.num_qubits, self.b_u
        psi_u = circuit_unitary(ansatz_circuit(ansatz, params))
        b_emb, psi_emb = _embed_prep(b_u), _embed_prep(psi_u)

        def cross(op: deco.Operator) -> complex:
            if isinstance(op, ToeplitzSpec):
                return engine.toeplitz_cross(op, b_emb, psi_emb)
            if isinstance(op, deco.ProjectorPair):
                return engine.projector_cross(op, self.b_vec, n_system, psi_u)
            return engine.word_bracket(op, n, n_system, b_u, psi_u)

        def same(op: deco.Operator) -> complex:
            if isinstance(op, ToeplitzSpec):
                return engine.toeplitz_same(op, psi_emb)
            if isinstance(op, deco.ProjectorPair):
                return complex(engine.projector_same(op, psi_u[:, 0]))
            return engine.word_bracket(op, n, n_system, psi_u, psi_u)

        return cross, same

    def energy(self, cross, same) -> tuple[float, list[TermReport]]:
        """<psi|A^2|psi> - |<b|A|psi>|^2 from the term values cross(op) =
        <b|op|psi> and same(op) = <psi|op|psi>, one report row per term."""
        report: list[TermReport] = []
        linear = 0.0 + 0.0j
        for term in self.a_terms.terms:
            value = cross(term.op)
            contribution = term.coefficient * value
            linear += contribution
            report.append(TermReport(_label(term.op), value, contribution))
        square = 0.0 + 0.0j
        for term in self.a2_terms.terms:
            if isinstance(term.op, deco.TensorWord) and term.op.is_identity:
                value = 1.0 + 0.0j
            else:
                value = same(term.op)
            contribution = term.coefficient * value
            if term.conjugate_pair:
                contribution = contribution + np.conj(contribution)
            square += contribution
            report.append(TermReport(_label(term.op), value, contribution))
        report.append(TermReport("<b|A|psi>", linear, -abs(linear) ** 2))
        return float(np.real(square) - abs(linear) ** 2), report

    def evaluate(self, ansatz, params, shots, seed) -> tuple[float, list[TermReport]]:
        if shots is not None:
            return self.energy(*self.circuit_terms(_BracketEngine(shots, seed), ansatz, params))
        n, psi = self.a_terms.n, ansatz_state(ansatz, params)
        return self.energy(
            lambda op: np.vdot(self.b_vec, _apply_operator(op, n, psi)),
            lambda op: np.vdot(psi, _apply_operator(op, n, psi)),
        )

    def cost(self, ansatz, params, shots, seed) -> float:
        return self.evaluate(ansatz, params, shots, seed)[0]


def _poisson_context(problem: PoissonProblem, term_lists=None) -> _SystemCostContext:
    a_terms, a2_terms = term_lists if term_lists is not None else default_term_lists(problem)
    return _SystemCostContext(a_terms, a2_terms, prepare_b(problem), problem.total_qubits)


def _optimizer_cost(context, ansatz: AnsatzSpec, shots: int | None, seed: int):
    """Cost callable for the optimizer; shot-mode seeds advance per call."""
    calls = itertools.count(1)

    def cost(params: np.ndarray) -> float:
        return context.cost(ansatz, params, shots, seed + 7919 * next(calls))

    return cost


def cost_linear_system(
    problem: PoissonProblem,
    ansatz: AnsatzSpec,
    params: np.ndarray,
    shots: int | None = None,
    seed: int = 0,
    term_lists: tuple[deco.TermList, deco.TermList] | None = None,
) -> tuple[float, list[TermReport]]:
    """E(theta) = <psi|A^2|psi> - |<b|A|psi>|^2 from decomposition terms."""
    if ansatz.num_qubits != problem.total_qubits:
        raise DimensionMismatch(
            f"ansatz acts on {ansatz.num_qubits} qubits, problem needs {problem.total_qubits}"
        )
    return _poisson_context(problem, term_lists).evaluate(ansatz, params, shots, seed)


def _check_banded_width(spec: ToeplitzSpec, ansatz: AnsatzSpec) -> None:
    num_qubits = spec.n.bit_length() - 1
    if spec.n != 1 << num_qubits:
        raise ValueError("matrix size must be a power of two")
    if ansatz.num_qubits != num_qubits:
        raise DimensionMismatch("ansatz width does not match the matrix size")


def cost_toeplitz_system(
    spec: ToeplitzSpec,
    rhs: str | np.ndarray,
    ansatz: AnsatzSpec,
    params: np.ndarray,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Linear-system cost for a banded Toeplitz matrix.

    The Gram part <psi|T^dag T|psi> runs through the autocorrelation band
    minus corner projector corrections; the overlap part through T itself.
    """
    _check_banded_width(spec, ansatz)
    return _toeplitz_system_context(spec, rhs).cost(ansatz, params, shots, seed)


def _toeplitz_system_context(spec: ToeplitzSpec, rhs) -> _SystemCostContext:
    if isinstance(rhs, str):
        b_vec = np.full(spec.n, 1.0 / np.sqrt(spec.n), dtype=complex)
    else:
        b_vec = normalize(np.asarray(rhs, dtype=complex))
    a_terms = deco.TermList(
        (deco.DecompositionTerm(1.0, spec),),
        n=spec.n, dimension=1, target="banded-system", bra_equals_ket=False,
    )
    return _SystemCostContext(
        a_terms, deco.decompose_banded_gram(spec), b_vec, spec.n.bit_length() - 1
    )


class _MatvecContext:
    """Theta-independent pieces of the matrix-vector cost."""

    def __init__(self, spec: ToeplitzSpec, v0: np.ndarray):
        self.v0 = normalize(np.asarray(v0, dtype=complex))
        image_norm = np.linalg.norm(classical_toeplitz_matvec(spec, self.v0))
        if image_norm <= 1e-12:
            raise ZeroImage("T annihilates v0; the target state is undefined")
        self.scaled = spec.scaled(1.0 / image_norm)
        self.target = classical_toeplitz_matvec(self.scaled, self.v0)

    @cached_property
    def v0_emb(self) -> np.ndarray:
        num_qubits = self.scaled.n.bit_length() - 1
        return _embed_prep(circuit_unitary(_b_prep_circuit(self.v0, num_qubits)))

    def circuit_overlap(self, engine: _BracketEngine, ansatz, params) -> complex:
        psi_emb = _embed_prep(circuit_unitary(ansatz_circuit(ansatz, params)))
        return engine.toeplitz_cross(self.scaled, psi_emb, self.v0_emb)

    def cost(self, ansatz, params, shots, seed) -> float:
        if shots is None:
            overlap = np.vdot(ansatz_state(ansatz, params), self.target)
        else:
            overlap = self.circuit_overlap(_BracketEngine(shots, seed), ansatz, params)
        return float(1.0 - abs(overlap) ** 2)


def cost_matvec(
    spec: ToeplitzSpec,
    v0: np.ndarray,
    ansatz: AnsatzSpec,
    params: np.ndarray,
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """E(theta) = 1 - |<psi| T/||T v0|| |v0>|^2."""
    _check_banded_width(spec, ansatz)
    return _MatvecContext(spec, v0).cost(ansatz, params, shots, seed)


def matvec_target_state(spec: ToeplitzSpec, v0: np.ndarray) -> np.ndarray:
    """Classical normalized image T|v0>, the state the matvec cost selects."""
    return _MatvecContext(spec, v0).target


def make_linear_system_cost(problem, ansatz, shots=None, seed=0):
    """Cost callable for the optimizer; shot-mode seeds advance per call."""
    return _optimizer_cost(_poisson_context(problem), ansatz, shots, seed)


def make_toeplitz_system_cost(spec, rhs, ansatz, shots=None, seed=0):
    return _optimizer_cost(_toeplitz_system_context(spec, rhs), ansatz, shots, seed)


def make_matvec_cost(spec, v0, ansatz, shots=None, seed=0):
    return _optimizer_cost(_MatvecContext(spec, v0), ansatz, shots, seed)


def dense_hamiltonian(problem: PoissonProblem) -> np.ndarray:
    """Oracle H = A^dag (I - |b><b|) A for cross-checking the cost."""
    a = build_poisson_1d(problem) if problem.dimension == 1 else build_poisson_dd(problem)
    b = prepare_b(problem)
    proj = np.eye(problem.total_dim) - np.outer(b, b.conj())
    return a.conj().T @ proj @ a


def solution_fidelity(problem: PoissonProblem, ansatz: AnsatzSpec, params: np.ndarray) -> float:
    """|<x|psi(theta)>| against the dense-solve solution state."""
    a = build_poisson_1d(problem) if problem.dimension == 1 else build_poisson_dd(problem)
    x = normalize(dense_solve(a, np.asarray(prepare_b(problem))))
    return fidelity(x, ansatz_state(ansatz, params))


# ---------------------------------------------------------------------------
# optimization


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "nelder-mead"  # "nelder-mead" | "spsa"
    max_iters: int = 2000
    restarts: int = 5
    seed: int = 0
    shots: int | None = None  # informational; the cost callable owns sampling
    stall_window: int = 50
    stall_tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.method not in ("nelder-mead", "spsa"):
            raise ValueError(f"unknown optimizer {self.method!r}")


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


def _spsa_minimize(cost, x0, max_iters, rng, record):
    x = np.array(x0, dtype=float)
    a, c, big_a, alpha, gamma = 0.2, 0.15, 0.1 * max_iters, 0.602, 0.101
    for k in range(max_iters):
        ak = a / (k + 1 + big_a) ** alpha
        ck = c / (k + 1) ** gamma
        delta = rng.choice([-1.0, 1.0], size=x.shape)
        plus = cost(x + ck * delta)
        minus = cost(x - ck * delta)
        record(x + ck * delta, plus)
        record(x - ck * delta, minus)
        x -= ak * (plus - minus) / (2 * ck) * delta
    record(x, cost(x))
    return x


def optimize(
    cost,
    spec: AnsatzSpec,
    config: OptimizerConfig,
    reference_state: np.ndarray | None = None,
) -> TrainingTrace:
    """Minimize the cost over `restarts` random initializations.

    The trace records the best-so-far cost after every evaluation (so it
    is monotone within a restart); when a reference state is supplied the
    fidelity of the best-so-far parameters is recorded alongside.
    Deterministic for a fixed config seed.
    """
    trace = TrainingTrace()
    seed_seq = np.random.SeedSequence(config.seed)
    for restart, child in enumerate(seed_seq.spawn(config.restarts)):
        rng = np.random.default_rng(child)
        x0 = rng.uniform(0.0, 2.0 * np.pi, spec.param_count)
        state = {
            "evals": 0,
            "best": np.inf,
            "best_x": x0,
            "best_fid": None,
            "last_improve": 0,
        }

        def record(x, value):
            state["evals"] += 1
            if value < state["best"] - config.stall_tol:
                state["last_improve"] = state["evals"]
            if value < state["best"]:
                state["best"] = value
                state["best_x"] = np.array(x, dtype=float)
                if reference_state is not None:
                    state["best_fid"] = fidelity(
                        reference_state, ansatz_state(spec, state["best_x"])
                    )
            trace.records.append(
                TraceRecord(state["evals"], restart, state["best"], state["best_fid"])
            )

        def wrapped(x):
            value = cost(x)
            record(x, value)
            if state["evals"] - state["last_improve"] > config.stall_window:
                raise _StallStop
            if state["evals"] >= config.max_iters:
                raise _StallStop
            return value

        if config.method == "nelder-mead":
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
        else:
            _spsa_minimize(cost, x0, config.max_iters, rng, record)

        if state["best"] < trace.best_cost:
            trace.best_cost = float(state["best"])
            trace.best_params = state["best_x"]
            trace.best_restart = restart
    return trace
