"""Ansatz, cost functions, and the variational optimization loop.

Every cost is one functional of two decompositions and a state b:

    E(theta) = Re<psi|G|psi> - |<b|A|psi>|^2

assembled term by term by ``Cost``.  The linear-system costs take G = A^2
(Poisson) or G = T^dag T (banded system); the matrix-vector cost for a
banded T and input state v0 is the G = I case with A = T_s^dag,
T_s = T/||T v0||, and b = v0:

    E(theta) = 1 - |<v0|T_s^dag|psi>|^2 = 1 - |<psi|T_s|v0>|^2

which vanishes exactly when |psi> matches the normalized image T|v0>.

Exact mode prepares the ansatz statevector once per evaluation and takes
each term as the inner product np.vdot(left, apply(op, right)) that a
Hadamard test's ancilla bias estimates.  Shot mode samples the gate-level
circuits: banded parts through their circulant embedding (one extra
register qubit plus the test ancilla), projector pairs through
basis-change probability circuits, tensor words through controlled-block
Hadamard tests.
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


class Cost:
    """E(theta) = Re<psi|G|psi> - |<b|A|psi>|^2 from the term lists of A and G.

    The k-th evaluation (k = 0, 1, ...; ``__call__`` and ``report`` alike)
    samples with seed + 7919*k, so a fresh cost's first evaluation is the
    one-shot estimate at ``seed``.  Exact mode (shots=None) draws nothing.
    """

    def __init__(self, a_terms, g_terms, b, ansatz: AnsatzSpec, shots=None, seed=0):
        b = np.asarray(b)
        num_qubits = b.size.bit_length() - 1
        if b.size != 1 << num_qubits:
            raise ValueError("matrix size must be a power of two")
        if a_terms.total_dim != b.size or ansatz.num_qubits != num_qubits:
            raise DimensionMismatch(
                f"ansatz acts on {ansatz.num_qubits} qubits, the operator on {a_terms.total_dim}"
                f" amplitudes and b has {b.size}"
            )
        # Exact mode measures nothing the shot circuits could not.
        for term in g_terms.terms:
            if isinstance(term.op, deco.ProjectorPair):
                bell_pair_circuits(term.op, num_qubits)
        self.a_terms, self.g_terms, self.b = a_terms, g_terms, b
        self.ansatz, self.shots, self.seed = ansatz, shots, int(seed)
        self._evals = itertools.count()

    def __call__(self, params: np.ndarray) -> float:
        return self.report(params)[0]

    def report(self, params: np.ndarray) -> tuple[float, list[TermReport]]:
        """The cost and one report row per term, the overlap <b|A|psi> last."""
        seed = self.seed + 7919 * next(self._evals)
        if self.shots is not None:
            return self._energy(*self._circuit_terms(_BracketEngine(self.shots, seed), params))
        n, psi = self.a_terms.n, ansatz_state(self.ansatz, params)
        return self._energy(
            lambda op: np.vdot(self.b, _apply_operator(op, n, psi)),
            lambda op: np.vdot(psi, _apply_operator(op, n, psi)),
        )

    @cached_property
    def _b_u(self) -> np.ndarray:
        return circuit_unitary(_b_prep_circuit(self.b, self.ansatz.num_qubits))

    def _circuit_terms(self, engine: _BracketEngine, params):
        """(cross, same) for ``_energy`` as circuit estimates from ``engine``."""
        n, n_system, b_u = self.a_terms.n, self.ansatz.num_qubits, self._b_u
        psi_u = circuit_unitary(ansatz_circuit(self.ansatz, params))
        b_emb, psi_emb = _embed_prep(b_u), _embed_prep(psi_u)

        def cross(op: deco.Operator) -> complex:
            if isinstance(op, ToeplitzSpec):
                return engine.toeplitz_cross(op, b_emb, psi_emb)
            if isinstance(op, deco.ProjectorPair):
                return engine.projector_cross(op, self.b, n_system, psi_u)
            return engine.word_bracket(op, n, n_system, b_u, psi_u)

        def same(op: deco.Operator) -> complex:
            if isinstance(op, ToeplitzSpec):
                return engine.toeplitz_same(op, psi_emb)
            if isinstance(op, deco.ProjectorPair):
                return complex(engine.projector_same(op, psi_u[:, 0]))
            return engine.word_bracket(op, n, n_system, psi_u, psi_u)

        return cross, same

    def _energy(self, cross, same) -> tuple[float, list[TermReport]]:
        """<psi|G|psi> - |<b|A|psi>|^2 from the term values cross(op) =
        <b|op|psi> and same(op) = <psi|op|psi>, one report row per term."""
        report: list[TermReport] = []
        linear = 0.0 + 0.0j
        for term in self.a_terms.terms:
            value = cross(term.op)
            contribution = term.coefficient * value
            linear += contribution
            report.append(TermReport(_label(term.op), value, contribution))
        square = 0.0 + 0.0j
        for term in self.g_terms.terms:
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


def make_linear_system_cost(problem: PoissonProblem, ansatz, shots=None, seed=0) -> Cost:
    """The Poisson cost: A and G = A^2 from ``default_term_lists``, b = prepare_b."""
    return Cost(*default_term_lists(problem), prepare_b(problem), ansatz, shots, seed)


def _band_terms(spec: ToeplitzSpec) -> deco.TermList:
    return deco.TermList(
        (deco.DecompositionTerm(1.0, spec),),
        n=spec.n, dimension=1, target="banded-system", bra_equals_ket=False,
    )


def make_toeplitz_system_cost(spec: ToeplitzSpec, b, ansatz, shots=None, seed=0) -> Cost:
    """The banded-system cost: A = T, G = T^dag T as the autocorrelation band
    minus corner projector corrections, b normalized."""
    b_vec = normalize(np.asarray(b, dtype=complex))
    return Cost(_band_terms(spec), deco.decompose_banded_gram(spec), b_vec, ansatz, shots, seed)


def _matvec_scale(spec: ToeplitzSpec, v0) -> tuple[np.ndarray, float]:
    """(normalized v0, ||T v0||)."""
    v0 = normalize(np.asarray(v0, dtype=complex))
    image_norm = np.linalg.norm(classical_toeplitz_matvec(spec, v0))
    if image_norm <= 1e-12:
        raise ZeroImage("T annihilates v0; the target state is undefined")
    return v0, image_norm


def make_matvec_cost(spec: ToeplitzSpec, v0, ansatz, shots=None, seed=0) -> Cost:
    """E(theta) = 1 - |<psi|T_s|v0>|^2 with T_s = T/||T v0||: the cost with
    A = T_s^dag, G = I and b = v0, since <v0|T_s^dag|psi> = conj(<psi|T_s|v0>)."""
    v0, image_norm = _matvec_scale(spec, v0)
    adjoint = ToeplitzSpec(spec.n, {-l: np.conj(t) / image_norm for l, t in spec.coeffs.items()})
    identity = deco.TermList(
        (deco.DecompositionTerm(1.0, deco.TensorWord(("I",))),), spec.n, 1, "identity"
    )
    return Cost(_band_terms(adjoint), identity, v0, ansatz, shots, seed)


def matvec_target_state(spec: ToeplitzSpec, v0: np.ndarray) -> np.ndarray:
    """Classical normalized image T|v0>, the state the matvec cost selects."""
    v0, image_norm = _matvec_scale(spec, v0)
    return classical_toeplitz_matvec(spec, v0) / image_norm


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
