"""The three benchmark workloads, driven through vqtoeplitz's public calls.

Each workload follows the order ``cli.cmd_solve_poisson`` uses: problem ->
term lists -> ``verify_problem_terms`` -> cost callable -> dense reference
-> ``vqa.optimize``.  A round is one unit of work: one optimize call
(paper-1d, poisson-2d) or one batch of shot-mode evaluations
(mixed-1d-shots).  Every operation is checked against the dense oracle
after it is timed.

Import this module only after the BLAS/OpenMP thread variables are set.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from vqtoeplitz import decomposition as deco
from vqtoeplitz.linalg import dense_solve, fidelity, normalize
from vqtoeplitz.poisson import (
    BoundaryCondition,
    PoissonProblem,
    boundary_coefficients,
    build_poisson_1d,
    build_poisson_dd,
    prepare_b,
)
from vqtoeplitz.toeplitz import ToeplitzSpec
from vqtoeplitz.verification import verify_problem_terms
from vqtoeplitz.vqa import (
    AnsatzSpec,
    OptimizerConfig,
    ansatz_state,
    dense_hamiltonian,
    make_linear_system_cost,
    optimize,
)

TARGET_COST = 1e-3
MIN_FIDELITY = 0.99
ORACLE_TOL = 1e-10
VERIFY_TOL = 1e-12
CHECK_POINTS = 2  # seeded parameter points checked against the oracle per solve
SHOT_SIGMAS = 5.0

# span name -> "module.attr" inside the vqtoeplitz package
TRACED = {
    "vqa.ansatz_circuit": "vqa.ansatz_circuit",
    "vqa.ansatz_state": "vqa.ansatz_state",
    "linalg.fidelity": "linalg.fidelity",
    "circuits.exact_bracket": "circuits.exact_bracket",
    "circuits.bracket": "circuits.bracket",
    "circuits.projector_expectation": "circuits.projector_expectation",
    "circuits.circuit_unitary": "circuits.circuit_unitary",
    "circuits.run_statevector": "circuits.run_statevector",
    "circuits.sample_shots": "circuits.sample_shots",
    "toeplitz.embed_in_circulant": "toeplitz.embed_in_circulant",
    "toeplitz.circulant_expectation_terms": "toeplitz.circulant_expectation_terms",
}

# sample_shots(circuit, initial, shots, seed): tally the shots each call draws
TALLIES = {
    "circuits.sample_shots": lambda args, kwargs: kwargs.get("shots", args[2] if len(args) > 2 else 0),
}

# set-up phases, in the order the CLI runs them
SETUP_PHASES = (
    "poisson.build",
    "decomposition.build",
    "verification.verify",
    "vqa.cost_build",
    "linalg.dense_solve",
)


class SetupFailed(RuntimeError):
    """A problem's own term lists do not reconstruct its operator."""


@dataclass
class Unit:
    """One optimize call, or one batch of shot-mode evaluations.

    The units of a run repeat the same work: the same problem and optimizer
    seed, or a batch of the same size.
    """

    seconds: float
    marks: list[float]  # end of each evaluation after the unit's start, kernel time left out
    evals_to_target: int
    reached: bool
    attempted: int
    failures: list[str] = field(default_factory=list)  # one line per failed operation

    @property
    def evals(self) -> int:
        return len(self.marks)

    @property
    def time_to_target(self) -> float:
        return self.marks[self.evals_to_target - 1] if self.reached else self.seconds


@dataclass
class Probe:
    """A cost callable, its dense oracle and parameter points to time both at."""

    cost: object
    oracle: object
    points: list


def _term_lists(problem: PoissonProblem):
    """The decomposition the CLI pairs with a problem (public calls only)."""
    if problem.dimension == 1:
        if problem.boundary.kind == "dirichlet":
            return deco.decompose_dirichlet_1d(problem.n)
        c, d = boundary_coefficients(problem.boundary, problem.n)
        return deco.decompose_unified_1d(problem.n, c, d)
    return (
        deco.decompose_dirichlet_dd(problem.dimension, problem.n),
        deco.decompose_dirichlet_dd_squared(problem.dimension, problem.n),
    )


def _dense_energy(ansatz, hamiltonian, x) -> float:
    """The dense oracle: <psi|H|psi> at the ansatz state for parameters x."""
    psi = ansatz_state(ansatz, x)
    return float(np.real(np.vdot(psi, hamiltonian @ psi)))


def _failure(tag: str) -> str:
    return f"{tag}: {traceback.format_exc(limit=2).strip().splitlines()[-1]}"


class _Recorder:
    """The cost callable handed to ``optimize``: one ``vqa.cost`` span per call.

    After each call it lets the calibrator run its kernel; the kernel's time
    is left out of the unit's marks and seconds.
    """

    def __init__(self, tracer, cal, cost):
        self.tracer = tracer
        self.cal = cal
        self.cost = cost
        self.values: list[float] = []
        self.ends: list[float] = []  # end of each call, kernel time before it left out
        self.points: list[np.ndarray] = []
        self.start = time.perf_counter()
        self.paused0 = cal.paused

    def __call__(self, x):
        value = self.tracer.call("vqa.cost", self.cost, x)
        self.ends.append(time.perf_counter() - (self.cal.paused - self.paused0))
        self.values.append(value)
        self.points.append(np.array(x, dtype=float))
        self.cal.maybe()
        return value

    def elapsed(self) -> float:
        """Seconds since the recorder was made, kernel time left out."""
        return time.perf_counter() - self.start - (self.cal.paused - self.paused0)

    def unit(self, seconds, accept, attempted, failures) -> Unit:
        """The unit's record; its target is the first evaluation ``accept`` passes."""
        marks = [end - self.start for end in self.ends]
        hits = [i for i, value in enumerate(self.values) if accept(i, value)]
        reached = bool(hits)
        return Unit(seconds, marks, hits[0] + 1 if reached else len(marks), reached,
                    attempted, failures)


def _solve(tracer, cal, cost, ansatz, config, reference, oracle, check_points) -> tuple[Unit, list]:
    """One checked optimize call; returns the unit and the evaluated points."""
    rec = _Recorder(tracer, cal, cost)
    try:
        trace = tracer.call("vqa.optimize", optimize, rec, ansatz, config, reference_state=reference)
    except Exception:
        return rec.unit(rec.elapsed(), lambda i, v: False, 1, [_failure("optimize")]), rec.points
    seconds = rec.elapsed()
    problems = []
    with tracer.paused():
        try:
            best = trace.best_params
            fid = fidelity(reference, ansatz_state(ansatz, best))
            if not (trace.best_cost < TARGET_COST and fid > MIN_FIDELITY):
                problems.append(f"best cost {trace.best_cost:.3e}, fidelity {fid:.6f}")
            for x in [best, *check_points]:
                err = abs(cost(x) - oracle(x))
                if not err <= ORACLE_TOL:
                    problems.append(f"cost differs from the dense oracle by {err:.3e}")
        except Exception:
            problems.append(_failure("check"))
    failures = ["; ".join(problems)] if problems else []
    unit = rec.unit(seconds, lambda i, value: value <= TARGET_COST, 1, failures)
    return unit, rec.points


class PoissonSolve:
    """Exact-mode solve of one Poisson problem with fixed optimizer starts."""

    def __init__(self, seed: int, problem_fn, depth: int, config: OptimizerConfig):
        self.rng = np.random.default_rng(seed)
        self.problem_fn = problem_fn
        self.depth = depth
        self.config = config
        self.points: list = []

    def setup(self, tracer) -> None:
        with tracer.region("poisson.build"):
            problem = self.problem_fn()
            a = build_poisson_1d(problem) if problem.dimension == 1 else build_poisson_dd(problem)
            b = prepare_b(problem)
        with tracer.region("decomposition.build"):
            term_lists = _term_lists(problem)
        with tracer.region("verification.verify"):
            err = verify_problem_terms(problem, term_lists)
        if err > VERIFY_TOL:
            raise SetupFailed(f"term-list reconstruction error {err:.3e}")
        self.ansatz = AnsatzSpec(problem.total_qubits, self.depth)
        with tracer.region("vqa.cost_build"):
            self.cost = make_linear_system_cost(problem, self.ansatz)
        with tracer.region("linalg.dense_solve"):
            self.reference = normalize(dense_solve(a, np.asarray(b)))
        self.problem, self.term_lists = problem, term_lists

    def prepare_checks(self) -> None:
        self.tally = sum(deco.count_terms(t) for t in self.term_lists)
        self.hamiltonian = dense_hamiltonian(self.problem)

    def oracle(self, x) -> float:
        return _dense_energy(self.ansatz, self.hamiltonian, x)

    def round(self, tracer, cal) -> list[Unit]:
        checks = [
            self.rng.uniform(0.0, 2.0 * np.pi, self.ansatz.param_count) for _ in range(CHECK_POINTS)
        ]
        unit, self.points = _solve(
            tracer, cal, self.cost, self.ansatz, self.config, self.reference, self.oracle, checks
        )
        return [unit]

    def probe(self) -> Probe:
        return Probe(self.cost, self.oracle, self.points)


class ShotEstimates:
    """Shot-mode cost at a seeded sequence of points; no optimizer."""

    def __init__(self, seed: int, batch: int, shots: int):
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.batch = batch
        self.shots = shots
        self.points: list = []

    def setup(self, tracer) -> None:
        with tracer.region("poisson.build"):
            rhs = self.rng.uniform(0.5, 1.5, 32)
            problem = PoissonProblem(1, 5, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0), rhs)
            a = build_poisson_1d(problem)
            b = prepare_b(problem)
        with tracer.region("decomposition.build"):
            a_terms, a2_terms = _term_lists(problem)
        with tracer.region("verification.verify"):
            err = verify_problem_terms(problem, (a_terms, a2_terms))
        if err > VERIFY_TOL:
            raise SetupFailed(f"term-list reconstruction error {err:.3e}")
        self.ansatz = AnsatzSpec(problem.total_qubits, 2)
        with tracer.region("vqa.cost_build"):
            self.cost = make_linear_system_cost(problem, self.ansatz, shots=self.shots, seed=self.seed)
        with tracer.region("linalg.dense_solve"):
            self.reference = normalize(dense_solve(a, np.asarray(b)))
        self.problem, self.term_lists, self.a, self.b = problem, (a_terms, a2_terms), a, b

    def prepare_checks(self) -> None:
        a_terms, a2_terms = self.term_lists
        self.tally = deco.count_terms(a_terms) + deco.count_terms(a2_terms)
        self.hamiltonian = dense_hamiltonian(self.problem)
        unit = 1.0 / np.sqrt(self.shots)
        self.sigma_square = unit * np.hypot.reduce([_noise_weight(t, self.b, True) for t in a2_terms.terms])
        self.sigma_linear = unit * np.hypot.reduce([_noise_weight(t, self.b, False) for t in a_terms.terms])

    def oracle(self, x) -> float:
        return _dense_energy(self.ansatz, self.hamiltonian, x)

    def bound(self, x) -> float:
        """SHOT_SIGMAS standard deviations of E = <A^2> - |<b|A|psi>|^2.

        Terms are estimated from independent samples, so their deviations
        add in quadrature; the linear part enters through |<b|A|psi>|^2.
        """
        linear = abs(np.vdot(self.b, self.a @ ansatz_state(self.ansatz, x)))
        k_lin = SHOT_SIGMAS * self.sigma_linear
        return SHOT_SIGMAS * self.sigma_square + 2.0 * linear * k_lin + k_lin**2

    def round(self, tracer, cal) -> list[Unit]:
        points = [
            self.rng.uniform(0.0, 2.0 * np.pi, self.ansatz.param_count) for _ in range(self.batch)
        ]
        rec = _Recorder(tracer, cal, self.cost)
        errors: list[str | None] = []

        def batch():
            for x in points:
                try:
                    rec(x)
                    errors.append(None)
                except Exception:
                    rec.values.append(np.nan)
                    rec.ends.append(rec.start + rec.elapsed())
                    errors.append(_failure("estimate"))

        tracer.call("bench.batch", batch)
        seconds = rec.elapsed()
        with tracer.paused():
            for i, (x, value) in enumerate(zip(points, rec.values)):
                if errors[i] is None and not abs(value - self.oracle(x)) <= self.bound(x):
                    errors[i] = f"estimate {value:.4f} outside the shot-noise bound"
        failures = [error for error in errors if error is not None]
        self.points = points
        return [rec.unit(seconds, lambda i, _: errors[i] is None, len(points), failures)]

    def probe(self) -> Probe:
        return Probe(self.cost, self.oracle, self.points)


def _noise_weight(term: deco.DecompositionTerm, b: np.ndarray, same: bool) -> float:
    """Bound on a term's estimation error, in units of 1/sqrt(shots).

    A Hadamard-test component has standard deviation <= 1/sqrt(shots), so a
    complex bracket errs by <= sqrt(2) of them; a projector probability by
    <= 1/2 of them, and a projector pair measures two probabilities.
    """
    op, coeff = term.op, abs(term.coefficient)
    root2 = np.sqrt(2.0)
    if isinstance(op, ToeplitzSpec):
        return coeff * root2 * sum(abs(v) for l, v in op.coeffs.items() if not (same and l == 0))
    if isinstance(op, deco.ProjectorPair):
        if same:
            return coeff
        amps = sum(abs(b[i]) + (abs(b[j]) if op.symmetrize and i != j else 0.0) for i, j in op.pairs)
        return coeff * root2 * amps
    if op.is_identity and same:
        return 0.0
    return coeff * root2 * (2.0 if term.conjugate_pair else 1.0)


def run_rounds(workload, tracer, cal, seconds: float) -> list[Unit]:
    """Repeat the workload's round while another one, as long as the last,
    still ends within ``seconds`` (at least one round)."""
    start = time.perf_counter()
    units = []
    while True:
        began = time.perf_counter()
        units.extend(workload.round(tracer, cal))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return units


def make(name: str, seed: int, quick: bool = False):
    """Workload by name; ``quick`` is the shortened configuration of the self-test."""
    if name == "paper-1d":
        config = OptimizerConfig(restarts=1, max_iters=40, seed=1) if quick else OptimizerConfig(restarts=5, seed=1)
        return PoissonSolve(seed, lambda: PoissonProblem(1, 3), 2, config)
    if name == "poisson-2d":
        config = OptimizerConfig(restarts=1, max_iters=20 if quick else 1000, seed=1)
        return PoissonSolve(seed, lambda: PoissonProblem(2, 2), 3, config)
    if name == "mixed-1d-shots":
        return ShotEstimates(seed, 10 if quick else 25, 1000)
    raise KeyError(name)


WORKLOADS = ("paper-1d", "poisson-2d", "mixed-1d-shots")
