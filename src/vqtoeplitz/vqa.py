"""Ansatz, cost functions, and the variational optimization loop.

Every cost is one functional of two decompositions and a state b:

    E(theta) = <psi|G|psi> - <b|A|psi>^2

assembled by ``Cost`` from the term lists.  Everything here is real: the
bands, the projector pairs and the words are real matrices, b is a real
vector, and the Ry + CNOT ansatz has real amplitudes, so every bracket is a
real number.
The linear-system costs take G = A^2 (Poisson) or G = T^T T (banded system);
the matrix-vector cost for a banded T and input state v0 is the G = I case
with A = T_s^T, T_s = T/||T v0||, and b = v0:

    E(theta) = 1 - <v0|T_s^T|psi>^2 = 1 - <psi|T_s|v0>^2

which vanishes exactly when |psi> matches the normalized image T|v0>.

Every evaluation prepares the ansatz statevector once, with the real
kernel ``ansatz_state`` (the first layer's Ry rotations as a product state,
each later layer's in Kronecker blocks of at most 3 qubits, one matrix
product per block, and each layer's CNOT chain one gather; it equals the
gate-level simulation of ``ansatz_circuit`` within 1e-14, and it prepares
a stack of parameter vectors in one call).  ``Cost`` compiles the
estimations, the units of the gate-level circuits (``circuits``), once
into an estimation table: one Hadamard-test bracket per shift power of a
band, one per distinct amplitude of a projector pair's cross term, one per
tensor word, one all-zeros probability per projector preparation circuit.
An evaluation from the table is a few array operations, not a Python call
per term: one matrix-vector product for the brackets <b|P|psi>, blocked
signed gathers for the brackets <psi|P|psi>, one matrix-vector product for
the projector probabilities, and two weighted sums.  Shot mode draws all of
them with one Binomial(shots, p) call over the table's probabilities, from
the one generator the cost makes from its seed, in table order, the
brackets before the probabilities: the ancilla of the Hadamard test of a
bracket x reads 0 with probability (1 + x)/2, and a projector circuit reads
all zeros with probability <prep|psi>^2.  The compile pass keeps that map
as one affine map over the table, so an evaluation maps, clips, draws and
maps back the whole table at once.  Exact mode needs no estimation one by
one: the same compile pass sums the table's <psi|P|psi> kernels, weighted,
into one quadratic form, so its value is

    E(theta) = psi^T Q psi + c_g - (a.psi)^2,    a = A^T b,

and ``report`` takes the table at its exact values.  ``optimize`` records
the fidelity of each best point so far from batched ``ansatz_state`` calls
after each restart, whatever the cost callable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import decomposition as deco
from .circuits import (
    Circuit,
    NonUnitaryBlock,
    bell_pair_circuits,
    run_statevector,
    shot_count,
)
from .linalg import DimensionMismatch, dense_solve, fidelity, integer, normalize, num_qubits
from .poisson import PoissonProblem, boundary_coefficients, build_poisson, prepare_b
from .toeplitz import ToeplitzSpec, classical_toeplitz_matvec, shift_gather, unit_band


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


def _checked_params(spec: AnsatzSpec, params) -> np.ndarray:
    """``params`` as floats, with ``spec.param_count`` on the last axis."""
    params = np.asarray(params, dtype=float)
    if params.shape[-1:] != (spec.param_count,):
        raise LengthMismatch(
            f"expected {spec.param_count} parameters on the last axis, got shape {params.shape}"
        )
    return params


def ansatz_circuit(spec: AnsatzSpec, params: np.ndarray) -> Circuit:
    params = _checked_params(spec, params)
    if params.ndim != 1:
        raise LengthMismatch(f"a circuit takes one parameter vector, got shape {params.shape}")
    circ = Circuit(spec.num_qubits)
    for layer in params.reshape(spec.depth, spec.num_qubits):
        for q, theta in enumerate(layer):
            circ.ry(theta, q)
        for q in range(spec.num_qubits - 1):
            circ.cnot(q, q + 1)
    return circ


@cache
def _cnot_chain(qubits: int) -> np.ndarray:
    """The gather of one layer's CNOT chain: after cnot(0, 1) ... cnot(N-2, N-1)
    the amplitude at index i is the one at ``gather[i]`` before it."""
    index = np.arange(1 << qubits)
    gather = index
    for q in range(qubits - 1):
        # cnot(q, q + 1) flips bit q + 1 where bit q is set; it is its own inverse
        gather = gather[index ^ (((index >> q) & 1) << (q + 1))]
    gather.flags.writeable = False
    return gather


# Each layer's Ry rotations are applied in Kronecker blocks of at most this
# many qubits, one matrix product per block.  A block of g qubits costs 2^g
# multiply-adds per amplitude: smaller blocks mean more calls and passes over
# the register, larger ones more arithmetic.
_ROTATION_BLOCK = 3


@cache
def _kron_index(qubits: int) -> tuple[np.ndarray, ...]:
    """For each block of qubits, from the top qubit down, the (g, 2^g, 2^g)
    index of kron(Ry_top, ..., Ry_low)'s factors among a layer's 4N Ry
    entries (entry 4q + 2r + c is row r, column c of qubit q's Ry)."""
    blocks = []
    for top in range(qubits - 1, -1, -_ROTATION_BLOCK):
        block = range(top, max(top - _ROTATION_BLOCK, -1), -1)
        g = len(block)
        # bits[k, r] is the k-th bit of r from the top
        bits = (np.arange(1 << g) >> np.arange(g - 1, -1, -1)[:, None]) & 1
        index = 4 * np.array(block)[:, None, None] + 2 * bits[:, :, None] + bits[:, None, :]
        index.flags.writeable = False
        blocks.append(index)
    return tuple(blocks)


def ansatz_state(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """The ansatz statevectors, real (float64), for parameters of shape
    (..., P): states of shape (..., 2**N), each the one its own parameter
    vector gives alone.

    The register's rotations come in Kronecker blocks kron(Ry, ..., Ry) of
    at most ``_ROTATION_BLOCK`` qubits.  The first layer acts on |0...0>,
    so it gives the product state of its blocks' columns 0.  Each later
    layer applies its blocks in turn: the block on the register's top g
    qubits is one matrix product with the state as a (2**g, -1) matrix, and
    the transpose of the result moves those qubits to the bottom, so after
    a layer's last block every qubit is back in place.  Each layer's CNOT
    chain is one gather.  It equals ``run_statevector(ansatz_circuit(...))``
    within 1e-14.  A NaN or infinite parameter raises NonUnitaryBlock."""
    params = _checked_params(spec, params)
    qubits = spec.num_qubits
    half = params.reshape(-1, spec.depth, qubits, 1) / 2
    points = len(half)
    cos, sin = np.cos(half), np.sin(half)
    # Ry(theta) = [[c, -s], [s, c]], row by row, for every point, layer and qubit
    entries = np.concatenate([cos, -sin, sin, cos], axis=3).reshape(points, spec.depth, -1)
    blocks = [np.multiply.reduce(entries[:, :, index], axis=2) for index in _kron_index(qubits)]
    # on |0...0> a block kron(Ry, ..., Ry) gives its column 0: the first
    # layer's rotations make the product state of the blocks' columns
    psi = blocks[0][:, 0, :, 0]
    for block in blocks[1:]:
        psi = (psi[:, :, None] * block[:, 0, None, :, 0]).reshape(points, -1)
    gather = _cnot_chain(qubits)
    psi = psi.take(gather, axis=1)
    for layer in range(1, spec.depth):
        for block in blocks:
            matrix = block[:, layer]
            psi = (matrix @ psi.reshape(points, matrix.shape[-1], -1)).swapaxes(1, 2)
            psi = psi.reshape(points, -1)
        psi = psi.take(gather, axis=1)
    # a finite parameter vector keeps its state's norm at 1 and a NaN or an
    # infinity makes its state NaN, so the sum of the squared norms tells
    total = float(np.vdot(psi, psi))
    if not abs(total - points) < 2e-12 * points:
        norms = np.sqrt(np.einsum("ij,ij->i", psi, psi))
        norm = norms[np.argmax(np.abs(norms - 1.0))]
        raise NonUnitaryBlock(f"the ansatz changed the state norm from 1 to {norm}")
    return psi.reshape(params.shape[:-1] + (-1,))


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


# The <psi|P|psi> gathers run in blocks of at most this many amplitudes: from
# 2^15 amplitudes on, one bracket per block, since one gather of every word at
# once is memory-bound and slower there.
_GATHER_BLOCK = 1 << 15


def _folded(parts, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (row, col, value) of ``parts`` folded onto row <= col and
    summed, each pair once, zeros dropped: the triplets (i, j, q) with
    psi^T Q psi = sum q psi[i] psi[j] for the Q the parts' entries sum to.
    Each part is merged as it comes into the sorted pairs so far, so no
    work array is much larger than the result."""
    keys, values = np.zeros(0, dtype=np.int64), np.zeros(0)
    for rows, cols, part in parts:
        pair = np.minimum(rows, cols) * size + np.maximum(rows, cols)
        keys = np.concatenate([keys, pair.ravel()])
        values = np.concatenate([values, part.ravel()])
        order = keys.argsort(kind="stable")  # the pairs so far are one sorted run
        keys = keys[order]
        values = values[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        keys = keys[starts]
        values = np.add.reduceat(values, starts)
    kept = values != 0
    return *np.divmod(keys[kept], size), values[kept]


class Cost:
    """E(theta) = <psi|G|psi> - <b|A|psi>^2 from the term lists of A and G
    and a real unit state b.  Each operator must act on the lists' grid.

    The constructor compiles both lists into one estimation table, laid
    out and drawn in this order, the brackets before the probabilities:

    * each bracket <b|P|psi> (a shift power of a band, a distinct amplitude
      <j|psi> of a projector pair, a word) is a row r = P^T b of a matrix R,
    * each bracket <psi|P|psi> (a shift power |p| of a band, a word) is a
      signed gather (P psi)[i] = sign[i] psi[perm[i]], from
      ``toeplitz.shift_gather`` for a shift, ``word_permutation`` for a word,
    * each projector preparation circuit's all-zeros probability is
      <prep|psi>^2, with its state a row of a matrix S.

    Each estimation is one entry (term index, weight, kernel), the kernel
    being its row of R, its gather or its row of S.  A band's or a word's
    weights and free constant are those of ``decomposition.brackets``, the
    rule ``count_terms`` tallies.  The estimations e then give
    E = w_g.e + c_g - (w_a.e)^2, where the weights also fold in the
    coefficients and the doubling of a conjugate pair W + W^T of G (one in
    A raises ValueError: <b|W^T|psi> is not <b|W|psi>), and c_g sums the
    free constants.  ``estimations`` is the table's length, the number of
    estimations each evaluation draws.

    Shot mode draws from one generator, made once from ``seed``; each
    evaluation (``__call__`` and ``report`` alike) continues its stream
    with one Binomial(shots, p) call over the whole table.  The compile
    pass keeps the shot map p = slope x + offset, in table order: (1/2, 1/2)
    for a bracket x, whose Hadamard test reads 0 with probability
    (1 + x)/2, and (1, 0) for a preparation probability.  Its inverse
    (f - offset)/slope takes each drawn frequency f back to an estimation:
    2f - 1 (the ancilla bias) and f.
    Exact mode (shots=None) draws nothing, and its ``__call__`` skips the
    table: the compile pass also sums each gather's and each row of S's
    weighted entries into one quadratic form Q, kept as the triplets
    (i <= j, q) of ``_folded``, so E = psi^T Q psi + c_g - (a.psi)^2 with
    a = R^T w_a.  ``report`` takes the table in both modes.
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
        if not abs(np.linalg.norm(b) - 1.0) <= 1e-12:
            raise ValueError("b must be a finite unit vector")
        if shots is not None:
            shots = shot_count(shots)
        self.a_terms, self.g_terms, self.b = a_terms, g_terms, b
        self.ansatz, self.shots = ansatz, shots
        self._rng = np.random.default_rng(integer(seed, "seed", 0))
        self._compile(qubits)

    def _compile(self, qubits: int) -> None:
        """Build the estimation table of the class docstring in one pass over
        the terms.  Each estimation is an entry (term index, weight, kernel)
        on one of three lists, rows, gathers and preps, whose concatenation
        is the table; an operator off the lists' grid raises DimensionMismatch."""
        n, d, b = self.a_terms.n, self.a_terms.dimension, self.b
        terms = [(term, False) for term in self.a_terms.terms]
        terms += [(term, True) for term in self.g_terms.terms]
        rows, gathers, preps = [], [], []
        constants = np.zeros(len(terms))
        for t, (term, same) in enumerate(terms):
            op = term.op
            if term.conjugate_pair and not same:
                raise ValueError(f"a conjugate pair of {_label(op)} in the A list")
            if isinstance(op, deco.ProjectorPair):
                if not all(0 <= k < b.size for entry in op.pairs for k in entry):
                    raise DimensionMismatch(f"{op} does not fit {b.size} amplitudes")
                if same:  # one all-zeros probability <prep|psi>^2 per preparation circuit
                    preps += [(t, sign, run_statevector(prep).real)
                              for prep, sign in bell_pair_circuits(op, qubits)]
                else:  # <b|M|psi>: one bracket <j|psi> per distinct amplitude
                    amp = {}
                    for i, j in op.entries:
                        amp[j] = amp.get(j, 0.0) + b[i]
                    rows += [(t, weight, np.arange(b.size) == j) for j, weight in amp.items()]
            else:
                # a band acts on (n, 1), a word has one letter per axis
                band = isinstance(op, ToeplitzSpec)
                fits = (op.n, 1) == (n, d) if band else len(op.letters) == d
                if not fits:
                    raise DimensionMismatch(f"{op} does not fit the (n, d) = {(n, d)} grid")
                weights, constants[t] = deco.brackets(op, same)
                for key, weight in weights.items():
                    perm, sign = shift_gather(key, n) if band else deco.word_permutation(key, n)
                    if same:
                        gathers.append((t, weight, (perm, sign)))
                    else:  # <b|P|psi> = sum_i b[i] sign[i] psi[perm[i]]
                        rows.append((t, weight, np.bincount(perm, b * sign, b.size)))

        # the Hadamard-test brackets come first, the projector probabilities after
        table = rows + gathers + preps
        self._brackets = len(rows) + len(gathers)
        self.estimations = len(table)
        # the shot map of the class docstring; (f - 1/2)/(1/2) is 2f - 1 to
        # the bit, since halving and doubling are exact
        bracket = np.arange(self.estimations) < self._brackets
        self._shot_map = np.where(bracket, 0.5, 1.0), np.where(bracket, 0.5, 0.0)
        self._labels = [_label(term.op) for term, _ in terms]
        self._values = np.zeros((len(terms), self.estimations))
        for k, (t, weight, _) in enumerate(table):
            self._values[t, k] = weight
        self._constants = constants
        # a conjugate pair W + W^T of the G list: <psi|W^T|psi> = <psi|W|psi>
        self._weights = np.array(
            [(2 if term.conjugate_pair else 1) * term.coefficient for term, _ in terms]
        )
        g_weights = np.where([same for _, same in terms], self._weights, 0.0)
        self._w_a = (self._weights - g_weights) @ self._values
        self._w_g = g_weights @ self._values
        self._c_g = float(g_weights @ constants)

        self._rows = np.array([row for _, _, row in rows], dtype=float).reshape(-1, b.size)
        self._preps = np.array([prep for _, _, prep in preps]).reshape(-1, b.size)
        kernels = [gather for _, _, gather in gathers]
        per_block = max(_GATHER_BLOCK // b.size, 1)
        self._gathers = [  # (perm, sign) of each block, one row per bracket; no copy of one
            tuple(np.stack(part) if len(part) > 1 else part[0][None]
                  for part in zip(*kernels[k: k + per_block]))
            for k in range(0, len(kernels), per_block)
        ]

        # exact mode: <psi|G|psi> = psi^T Q psi, from the gathers' and the
        # preparation rows' weighted entries, and <b|A|psi> = a.psi, a = R^T w_a
        self._a = self._w_a[: len(rows)] @ self._rows
        w_gathers = self._w_g[len(rows): self._brackets]
        i = np.arange(b.size)

        def parts():  # (row, col, value) of every entry, one block at a time
            for k, (perm, sign) in zip(range(0, len(kernels), per_block), self._gathers):
                yield i, perm, w_gathers[k: k + len(perm), None] * sign
            for weight, prep in zip(self._w_g[self._brackets:], self._preps):
                nz = np.flatnonzero(prep)
                yield nz[:, None], nz, weight * np.outer(prep[nz], prep[nz])

        self._q = _folded(parts(), b.size)

    def __call__(self, params: np.ndarray) -> float:
        if self.shots is not None:
            return self._energy(self._estimations(params))
        psi = ansatz_state(self.ansatz, params)
        rows, cols, values = self._q
        return float((values * psi[rows]) @ psi[cols] + self._c_g - (self._a @ psi) ** 2)

    def report(self, params: np.ndarray) -> tuple[float, list[TermReport]]:
        """The cost and one report row per term, the overlap <b|A|psi> last."""
        return self._report(self._estimations(params))

    def _estimations(self, params: np.ndarray) -> np.ndarray:
        """The estimations at ``params``; shot mode draws from the cost's generator."""
        psi = ansatz_state(self.ansatz, params)
        return self._sampled(psi, None if self.shots is None else self._draw)

    def _draw(self, p: np.ndarray) -> np.ndarray:
        """The frequencies of Binomial(shots, p) draws, one per entry of p."""
        return self._rng.binomial(self.shots, p.clip(0.0, 1.0)) / self.shots

    def _sampled(self, psi: np.ndarray, draw=None) -> np.ndarray:
        """The table's estimations at ``psi``, in table order: with ``draw``,
        draw(p) gives the estimated probabilities of outcomes whose exact
        probabilities are the array p, mapped to estimations by the shot
        map; without, each is its exact value."""
        x = np.concatenate(
            [self._rows @ psi]
            + [(sign * psi[perm]) @ psi for perm, sign in self._gathers]
            + [(self._preps @ psi) ** 2]
        )
        if draw is None:
            return x
        slope, offset = self._shot_map
        return (draw(x * slope + offset) - offset) / slope

    def _energy(self, e: np.ndarray) -> float:
        """<psi|G|psi> - <b|A|psi>^2 from the estimations e."""
        return float(self._w_g @ e + self._c_g - (self._w_a @ e) ** 2)

    def _report(self, e: np.ndarray) -> tuple[float, list[TermReport]]:
        """``_energy`` and one report row per term, the overlap <b|A|psi> last."""
        values = self._values @ e + self._constants
        report = [
            TermReport(label, float(value), float(weight * value))
            for label, value, weight in zip(self._labels, values, self._weights)
        ]
        linear = float(self._w_a @ e)
        report.append(TermReport("<b|A|psi>", linear, -linear**2))
        return self._energy(e), report


def make_linear_system_cost(problem: PoissonProblem, ansatz, shots=None, seed=0) -> Cost:
    """The Poisson cost: A and G = A^2 from ``default_term_lists``, b = prepare_b."""
    return Cost(*default_term_lists(problem), prepare_b(problem), ansatz, shots, seed)


def _band_terms(spec: ToeplitzSpec) -> deco.TermList:
    return deco.TermList(
        (deco.DecompositionTerm(1.0, spec),),
        n=spec.n, dimension=1, bra_equals_ket=False,
    )


def make_toeplitz_system_cost(spec: ToeplitzSpec, b, ansatz, shots=None, seed=0) -> Cost:
    """The banded-system cost: A = T, G = T^T T as the autocorrelation band
    minus corner projector corrections, b normalized."""
    gram = deco.decompose_banded_gram(spec)
    return Cost(_band_terms(spec), gram, normalize(b), ansatz, shots, seed)


def _matvec_image(spec: ToeplitzSpec, v0) -> tuple[np.ndarray, ToeplitzSpec, np.ndarray]:
    """(normalized v0, T_s^T with T_s = T/||T v0||, the target state
    T v0/||T v0||).  The band is first scaled by ``toeplitz.unit_band``, the
    one scale rule (max|t_l| in [1/2, 1)), so ||T v0|| stays in range; that
    is exact, so an ordinary band's results keep every bit, and a band the
    rule already scaled is left as it is.  T annihilates v0 when
    ||T v0|| <= 1e-12 * sum|t_l|, an upper bound on ||T v0||."""
    v0 = normalize(v0)
    band = unit_band(spec)
    image = classical_toeplitz_matvec(band, v0)
    image_norm = np.linalg.norm(image)
    if image_norm <= 1e-12 * sum(abs(t) for t in band.coeffs.values()):
        raise ZeroImage("T annihilates v0; the target state is undefined")
    transpose = ToeplitzSpec(spec.n, {-l: t / image_norm for l, t in band.coeffs.items()})
    return v0, transpose, image / image_norm


def make_matvec_cost(spec: ToeplitzSpec, v0, ansatz, shots=None, seed=0) -> Cost:
    """E(theta) = 1 - <psi|T_s|v0>^2 with T_s = T/||T v0||: the cost with
    A = T_s^T, G = I and b = v0, since <v0|T_s^T|psi> = <psi|T_s|v0>."""
    v0, transpose, _ = _matvec_image(spec, v0)
    identity = deco.TermList(
        (deco.DecompositionTerm(1.0, deco.TensorWord(("I",))),), spec.n, 1
    )
    return Cost(_band_terms(transpose), identity, v0, ansatz, shots, seed)


def matvec_target_state(spec: ToeplitzSpec, v0: np.ndarray) -> np.ndarray:
    """Classical normalized image T|v0>, the state the matvec cost selects."""
    return _matvec_image(spec, v0)[2]


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


# The fidelity track prepares its states in batches whose kernel arrays (the
# Kronecker factors, at most 4^_ROTATION_BLOCK entries per rotation, and the
# states) hold at most this many entries, so a batch takes little more memory
# than one state does: the factors of a few hundred points would take a MB.
_STATE_BATCH = 1 << 12

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


def _nelder_mead(x0: np.ndarray):
    """Yield Nelder-Mead's points from ``x0`` until the simplex spans at most
    1e-12 in every coordinate and 1e-14 in value.  Each value comes back by
    ``send``, answered by a bare ``yield``, so a for loop sees each point once.

    The first simplex (each coordinate of x0 in turn scaled by 1.05, or set to
    0.00025 where it is 0) and the steps (reflect, expand by 2, contract and
    shrink by 1/2) are those of scipy's default Nelder-Mead, so the caller
    sees the same points in the same order, without the 19 MB of resident
    memory that importing ``scipy.optimize`` takes (scipy 1.17).
    """
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.zeros(n + 1)
    for j in range(n + 1):
        fsim[j] = yield sim[j].copy()
        yield
    while True:
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-12
                and np.abs(fsim[0] - fsim[1:]).max() <= 1e-14):
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        yield
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = yield xe
            yield
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # contract outside the simplex
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = yield xc
                yield
                accept = fxc <= fxr
            else:  # contract inside it
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = yield xc
                yield
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best point
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = yield sim[j].copy()
                    yield


def optimize(
    cost,
    spec: AnsatzSpec,
    config: OptimizerConfig,
    reference_state: np.ndarray | None = None,
) -> TrainingTrace:
    """Minimize the cost by Nelder-Mead over `restarts` random initializations.

    A restart ends on a stall, at `max_iters` evaluations or when the simplex
    converges.  The trace records the best-so-far cost after every
    evaluation (so it is monotone within a restart); when a reference state
    is supplied the fidelity of the best-so-far parameters is recorded
    alongside.  Those fidelities come after the restart's loop, whatever the
    cost callable: its improving points go through ``ansatz_state`` in
    batches of ``_STATE_BATCH`` kernel entries, one call per batch, so no
    state is prepared twice for the record.  Deterministic for a fixed
    config seed.
    """
    trace = TrainingTrace()
    seed_seq = np.random.SeedSequence(config.seed)
    for restart in range(config.restarts):
        x0 = np.random.default_rng(seed_seq.spawn(1)[0]).uniform(0.0, 2.0 * np.pi, spec.param_count)
        best, best_x, last_improve = np.inf, x0, 0
        improving, which = [], []  # the restart's improving points; each record's best one
        points = _nelder_mead(x0)
        for evals, x in enumerate(points, 1):
            value = cost(x)
            if value < best - STALL_TOL:
                last_improve = evals
            if value < best:
                best, best_x = value, np.array(x, dtype=float)
                improving.append(best_x)
            trace.records.append(TraceRecord(evals, restart, best))
            which.append(len(improving) - 1)
            if evals - last_improve > STALL_WINDOW or evals >= config.max_iters:
                break
            points.send(value)

        if reference_state is not None:
            per_point = 4**_ROTATION_BLOCK * spec.param_count + (1 << spec.num_qubits)
            per_batch = max(_STATE_BATCH // per_point, 1)
            fids = [
                fidelity(reference_state, state)
                for k in range(0, len(improving), per_batch)
                for state in ansatz_state(spec, np.array(improving[k: k + per_batch]))
            ]
            fids.append(None)  # which = -1: no point has improved yet
            for rec, k in zip(trace.records[-len(which):], which):
                rec.fidelity = fids[k]
        if best < trace.best_cost:
            trace.best_cost = float(best)
            trace.best_params = best_x
            trace.best_restart = restart
    return trace
