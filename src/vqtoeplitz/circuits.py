"""Gate-level circuits and exact/sampled statevector simulation.

These circuits are the reference the cost (``vqa``) is tested against: run
exactly, for its statevector terms; sampled, for the distribution of its
shot-mode draws.

Bit order: qubit 0 is the least significant bit of the basis-state index,
and a readout (exact probabilities or sampled counts) is an array indexed
by that basis-state index.  Every circuit's dense realization
is unitary.  Each gate carries its unitary, fixed when the builder method
adds it; ``cblock`` wraps an arbitrary unitary acting on a target range
when the control qubit is |1>, which is how controlled tensor-word letters
and state preparations enter the Hadamard tests.

The QFT circuit matches ``linalg.dft_matrix`` exactly (it ends with the
bit-reversal swaps, each compiled to three CNOTs); a phase tower between
a QFT pair realizes any power of the cyclic shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .decomposition import ProjectorPair
from .linalg import DimensionMismatch, integer, power_of_two
from .toeplitz import phase_spectrum


class NonUnitaryBlock(ValueError):
    """A block gate's matrix is not unitary, or a simulation did not keep the
    state's norm."""


class ShotCountZero(ValueError):
    """Sampled estimation requires at least one shot."""


class UnsupportedPattern(ValueError):
    """Projector descriptor has no basis-change circuit realization."""


_UNITARY_TOL = 1e-12
MAX_SHOTS = 2**63 - 1  # the largest count numpy draws: a C long

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_S = np.diag([1.0, 1j])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # qubit order (control, target): basis index = control + 2*target


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary ``matrix`` on ``qubits`` (first listed = least significant);
    ``tag`` and ``angle`` name it for readers of the circuit."""

    tag: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    angle: float | None = None


def _check_unitary(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise NonUnitaryBlock(f"block must be square, got {matrix.shape}")
    power_of_two(dim, "block size", 1, NonUnitaryBlock)
    defect = np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
    if defect > _UNITARY_TOL:
        raise NonUnitaryBlock(f"block unitarity defect {defect:.2e} exceeds {_UNITARY_TOL}")
    return matrix


@dataclass
class Circuit:
    """Ordered gate list on a fixed qubit count."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.num_qubits = integer(self.num_qubits, "num_qubits", 1)

    def _check(self, *qubits) -> tuple[int, ...]:
        """The qubit indices as ints: each an integer in range, none repeated."""
        qubits = tuple(integer(q, "qubit") for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {qubits}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range for {self.num_qubits} qubits")
        return qubits

    def _add(self, tag, qubits, matrix, angle=None) -> "Circuit":
        self.gates.append(Gate(tag, self._check(*qubits), matrix, angle))
        return self

    def h(self, q):
        return self._add("h", (q,), _H)

    def x(self, q):
        return self._add("x", (q,), _X)

    def s(self, q):
        return self._add("s", (q,), _S)

    def sdg(self, q):
        return self._add("sdg", (q,), _S.conj())

    def ry(self, angle, q):
        angle = float(angle)
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return self._add("ry", (q,), np.array([[c, -s], [s, c]], dtype=complex), angle)

    def phase(self, angle, q):
        angle = float(angle)
        return self._add("phase", (q,), np.diag([1.0, np.exp(1j * angle)]), angle)

    def cnot(self, control, target):
        return self._add("cnot", (control, target), _CNOT)

    def cphase(self, angle, control, target):
        angle = float(angle)
        matrix = np.diag([1.0, 1.0, 1.0, np.exp(1j * angle)])
        return self._add("cphase", (control, target), matrix, angle)

    def swap(self, a, b):
        self.cnot(a, b)
        self.cnot(b, a)
        return self.cnot(a, b)

    def block(self, qubits, matrix):
        """Arbitrary unitary on a qubit tuple (first listed = least significant)."""
        return self._add("block", tuple(qubits), _check_unitary(matrix))

    def cblock(self, control, targets, matrix):
        """Unitary on the target tuple applied when the control reads |1>."""
        matrix = _check_unitary(matrix)
        dim = matrix.shape[0]
        if dim != 1 << len(targets):
            raise DimensionMismatch(f"block of dim {dim} does not fit {len(targets)} targets")
        # block_diag(I, U), with the control as the most significant local bit
        full = np.eye(2 * dim, dtype=complex)
        full[dim:, dim:] = matrix
        return self._add("cblock", (*targets, control), full)

    def extend(self, other: "Circuit") -> "Circuit":
        if other.num_qubits > self.num_qubits:
            raise DimensionMismatch("cannot extend with a wider circuit")
        self.gates.extend(other.gates)
        return self

    def inverse(self) -> "Circuit":
        """The gates reversed, each one's conjugate transpose; s and sdg swap
        tags and an angle changes sign, so the inverse still reads right."""
        inv = Circuit(self.num_qubits)
        for gate in reversed(self.gates):
            tag = {"s": "sdg", "sdg": "s"}.get(gate.tag, gate.tag)
            angle = None if gate.angle is None else -gate.angle
            inv.gates.append(Gate(tag, gate.qubits, gate.matrix.conj().T, angle))
        return inv


# ---------------------------------------------------------------------------
# simulation


def _apply_unitary(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a 2^k unitary to the listed qubits (first = least significant).

    ``state`` may be a vector (2^n,) or a stack of columns (2^n, m).
    """
    k, n = len(qubits), state.shape[0].bit_length() - 1
    cols = 1 if state.ndim == 1 else state.shape[1]
    tensor = state.reshape([2] * n + [cols])
    # axis of qubit q is n-1-q; bring target axes to the front ordered
    # most-significant-first so the flattened front index matches the matrix.
    axes = [n - 1 - q for q in reversed(qubits)]
    tensor = np.moveaxis(tensor, axes, range(k))
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(1 << k, -1)
    tensor = np.moveaxis(tensor.reshape(shape), range(k), axes)
    out = tensor.reshape(1 << n, cols)
    return out[:, 0] if state.ndim == 1 else out


def run_statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Exact simulation; returns the final statevector."""
    dim = 1 << circuit.num_qubits
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex)
        if state.shape != (dim,):
            raise DimensionMismatch(f"initial state has dim {state.shape}, circuit needs {dim}")
        state = state.copy()
    expected_norm = 1.0 if initial is None else float(np.linalg.norm(initial))
    for gate in circuit.gates:
        state = _apply_unitary(state, gate.matrix, gate.qubits)
    norm = float(np.linalg.norm(state))
    if not abs(norm - expected_norm) < 1e-12 * max(1.0, expected_norm):
        raise NonUnitaryBlock(f"simulation changed the state norm from {expected_norm} to {norm}")
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (columns = images of basis states)."""
    dim = 1 << circuit.num_qubits
    mat = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        mat = _apply_unitary(mat, gate.matrix, gate.qubits)
    return mat


def shot_count(shots) -> int:
    """``shots`` as an int in [1, MAX_SHOTS]: ShotCountZero below, ValueError above."""
    shots = integer(shots, "shots", 1, ShotCountZero)
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {shots}")
    return shots


def sample_shots(circuit: Circuit, initial: np.ndarray | None, shots: int, seed: int) -> np.ndarray:
    """Multinomial sample of computational-basis outcomes: the count of each
    basis-state index, an int array of length 2^n; deterministic in seed."""
    shots = shot_count(shots)
    probs = np.abs(run_statevector(circuit, initial)) ** 2
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def _readout(circuit: Circuit, initial: np.ndarray | None, shots: int | None, seed: int) -> np.ndarray:
    """Each basis state's weight: its exact probability, or with ``shots``
    its frequency in that many sampled outcomes."""
    if shots is None:
        return np.abs(run_statevector(circuit, initial)) ** 2
    return sample_shots(circuit, initial, shots, seed) / shots


# ---------------------------------------------------------------------------
# structured circuits


def qft_circuit(num_qubits: int) -> Circuit:
    """QFT whose dense form equals dft_matrix(2**num_qubits).

    num_qubits Hadamards, num_qubits*(num_qubits-1)/2 controlled phases,
    floor(num_qubits/2) bit-reversal swaps.
    """
    num_qubits = integer(num_qubits, "num_qubits", 1)
    circ = Circuit(num_qubits)
    for j in range(num_qubits - 1, -1, -1):
        circ.h(j)
        for k in range(j - 1, -1, -1):
            circ.cphase(2.0 * np.pi / (1 << (j - k + 1)), k, j)
    for i in range(num_qubits // 2):
        circ.swap(i, num_qubits - 1 - i)
    return circ


def phase_tower_circuit(phases: tuple[float, ...]) -> Circuit:
    """One phase gate per qubit (``phase_spectrum``'s angles) realizing a
    power of the unit-root diagonal."""
    circ = Circuit(len(phases))
    for j, theta in enumerate(phases):
        if theta != 0.0:
            circ.phase(theta, j)
    return circ


def controlled_Ll_circuit(n: int, power: int) -> Circuit:
    """Ancilla-controlled l-th power of the cyclic down-shift on size n.

    Layout: system qubits 0..log2(n)-1, ancilla = log2(n).  The QFT pair is
    applied unconditionally (it cancels on the control-0 branch); only the
    phase tower is controlled.  Dense form is block_diag(I, L^power).
    """
    num_system = power_of_two(n, "n", 2)
    ancilla = num_system
    circ = Circuit(num_system + 1)
    qft = qft_circuit(num_system)
    circ.extend(qft)
    for j, theta in enumerate(phase_spectrum(n, power)):
        if theta != 0.0:
            circ.cphase(theta, ancilla, j)
    circ.extend(qft.inverse())
    return circ


def controlled_word_circuit(unitary: np.ndarray) -> Circuit:
    """Ancilla-controlled arbitrary unitary on the full system register."""
    num_system = linalg.num_qubits(unitary)
    circ = Circuit(num_system + 1)
    circ.cblock(num_system, tuple(range(num_system)), unitary)
    return circ


def state_prep_circuit(amplitudes: np.ndarray) -> Circuit:
    """Exact preparation of an arbitrary normalized state as one block gate."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    dim, qubits = amplitudes.shape[0], linalg.num_qubits(amplitudes)
    basis = np.eye(dim, dtype=complex)
    basis[:, 0] = amplitudes
    q, r = np.linalg.qr(basis)
    q[:, 0] *= r[0, 0] / abs(r[0, 0])  # undo QR's phase so column 0 is exactly the state
    circ = Circuit(qubits)
    return circ.block(tuple(range(qubits)), q)


def uniform_prep_circuit(num_qubits: int) -> Circuit:
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        circ.h(q)
    return circ


def basis_prep_circuit(num_qubits: int, index: int) -> Circuit:
    index = linalg.basis_index(num_qubits, index)
    circ = Circuit(num_qubits)
    for q in range(num_qubits):
        if (index >> q) & 1:
            circ.x(q)
    return circ


# ---------------------------------------------------------------------------
# Hadamard test


def _prep_unitary(prep: "Circuit | np.ndarray") -> np.ndarray:
    # ndarrays are accepted as precomputed preparation unitaries, so a caller
    # that tests many brackets on the same states builds each unitary once.
    return circuit_unitary(prep) if isinstance(prep, Circuit) else prep


def hadamard_test(
    controlled: Circuit,
    state_prep_left: "Circuit | np.ndarray",
    state_prep_right: "Circuit | np.ndarray",
    part: str = "real",
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """Interferometric estimate of Re or Im <left|U|right>.

    ``controlled`` is a circuit on n+1 qubits realizing the ancilla-controlled
    U on the n system qubits (ancilla = qubit n).  The left and right
    preparations are injected as blocks on the control-0 / control-1
    branches, the ancilla is read in the X (or, for the imaginary part,
    Y) basis, and the bias p0 - p1 is the requested component.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    ancilla = controlled.num_qubits - 1
    system = tuple(range(ancilla))
    circ = Circuit(controlled.num_qubits)
    circ.h(ancilla)
    if part == "imag":
        circ.sdg(ancilla)
    circ.x(ancilla)
    circ.cblock(ancilla, system, _prep_unitary(state_prep_left))
    circ.x(ancilla)
    circ.cblock(ancilla, system, _prep_unitary(state_prep_right))
    circ.extend(controlled)
    circ.h(ancilla)
    weights = _readout(circ, None, shots, seed)
    half = weights.size // 2  # the ancilla is the top qubit
    return float(weights[:half].sum() - weights[half:].sum())


# ---------------------------------------------------------------------------
# projector-pair measurement circuits


def _superposition_prep(num_qubits: int, i: int, j: int, sign: int) -> Circuit:
    """Prepare (|i> + sign |j>)/sqrt(2) up to a global sign."""
    differ = i ^ j
    pivot = (differ & -differ).bit_length() - 1
    circ = Circuit(num_qubits)
    if sign < 0:
        circ.x(pivot)
    circ.h(pivot)
    for b in range(num_qubits):
        if (differ >> b) & 1 and b != pivot:
            circ.cnot(pivot, b)
    for b in range(num_qubits):
        if (i >> b) & 1:
            circ.x(b)
    return circ


def bell_pair_circuits(descriptor, num_qubits: int) -> list[tuple[Circuit, int]]:
    """Preparation circuits and signs with <psi|M|psi> = sum sign*|<psi|prep|0>|^2.

    Supported patterns: one diagonal projector |i><i|; a diagonal pair
    |i><i| + |j><j| (rewritten as the two GHZ-style superposition
    projectors, both +1); a symmetrized off-diagonal pair
    |i><j| + |j><i| (superposition projectors with signs +1, -1).
    """
    if not isinstance(descriptor, ProjectorPair):
        raise UnsupportedPattern(f"not a projector pair: {type(descriptor).__name__}")
    dim = 1 << num_qubits
    for i, j in descriptor.pairs:
        if not (0 <= i < dim and 0 <= j < dim):
            raise UnsupportedPattern(f"basis index ({i},{j}) out of range for {num_qubits} qubits")
    if descriptor.symmetrize:
        if len(descriptor.pairs) != 1 or descriptor.pairs[0][0] == descriptor.pairs[0][1]:
            raise UnsupportedPattern("symmetrized descriptor must hold one off-diagonal pair")
        i, j = descriptor.pairs[0]
        return [
            (_superposition_prep(num_qubits, i, j, +1), +1),
            (_superposition_prep(num_qubits, i, j, -1), -1),
        ]
    if any(i != j for i, j in descriptor.pairs):
        raise UnsupportedPattern("off-diagonal entries require symmetrize=True")
    indices = [i for i, _ in descriptor.pairs]
    if len(set(indices)) != len(indices):
        raise UnsupportedPattern(f"diagonal pattern repeats an index: {indices}")
    if len(indices) == 1:
        return [(basis_prep_circuit(num_qubits, indices[0]), +1)]
    if len(indices) == 2:
        i, j = indices
        return [
            (_superposition_prep(num_qubits, i, j, +1), +1),
            (_superposition_prep(num_qubits, i, j, -1), +1),
        ]
    raise UnsupportedPattern(f"unsupported diagonal multiplicity {len(indices)}")


def projector_expectation(
    descriptor,
    prep_state: "Circuit | np.ndarray",
    shots: int | None = None,
    seed: int = 0,
) -> float:
    """<psi|M|psi> via basis-change circuits: invert each preparation on
    |psi> and read the all-zeros probability.

    ``prep_state`` is the circuit preparing |psi> from |0...0>, or the
    already-prepared statevector.
    """
    if isinstance(prep_state, Circuit):
        state = run_statevector(prep_state)
    else:
        state = np.asarray(prep_state, dtype=complex)
    qubits = linalg.num_qubits(state)
    total = 0.0
    for k, (prep, sign) in enumerate(bell_pair_circuits(descriptor, qubits)):
        total += sign * _readout(prep.inverse(), state, shots, seed + k)[0]
    return float(total)
