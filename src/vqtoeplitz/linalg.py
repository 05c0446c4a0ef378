"""Exact dense linear algebra used as the classical ground truth.

Everything in here is deliberately brute force: dense matrices, an O(n^2)
DFT matrix, a numpy LU with partial pivoting, and ``SparseMatrix``, the
sorted entries the pre-solve gate compares.  These routines are the oracle
that every circuit and every decomposition in the package is checked
against, so clarity beats speed.

Conventions fixed once for the whole package:

* the primitive root is ``omega_n = exp(+2j*pi/n)``; ``dft_matrix`` has
  entries ``omega**(j*k) / sqrt(n)``,
* with that sign, ``F.conj().T @ D @ F`` equals the cyclic down-shift
  ``L`` (ones on the subdiagonal plus the wrap-around corner), where
  ``D = diag(omega**0, ..., omega**(n-1))``.  The n=4 disambiguation
  check lives in the test suite.
"""

from __future__ import annotations

import numbers

import numpy as np

# Dense dimension cap: 12 qubits keeps every oracle check interactive.
MAX_DENSE_DIM = 4096

PIVOT_TOL = 1e-12


class DimensionOverflow(ValueError):
    """A dense construction would exceed MAX_DENSE_DIM."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or qubit counts."""


class SingularMatrix(ValueError):
    """A pivot fell below the singularity tolerance."""


class ZeroVector(ValueError):
    """A vector whose entries are all zero cannot be normalized."""


def check_dense(dim: int, what: str) -> None:
    """Raise DimensionOverflow before a dense ``dim`` x ``dim`` construction
    beyond MAX_DENSE_DIM."""
    if dim > MAX_DENSE_DIM:
        raise DimensionOverflow(f"{what} {dim} exceeds the dense cap {MAX_DENSE_DIM}")


def dense_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` by a blocked LU with partial pivoting, then
    forward and back substitution, all on numpy (no ``scipy.linalg``).

    Each pivot is the first row with the largest |entry| in its column, the
    row LAPACK's ``getrf`` picks.  Raises SingularMatrix when any pivot
    magnitude drops to 1e-12 * max|a| or below, or the residual fails the
    1e-10 * ||b||_inf bound; ValueError on a non-finite entry.  A real
    system stays real, and the solve holds one copy of ``a`` plus strips of
    at most 1/8 of it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {a.shape[0]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    lu, perm = _lu(a)
    pivots = np.abs(np.diagonal(lu))
    # max|a|; a real matrix's is read off its extremes, without a copy of it
    bound = PIVOT_TOL * (max(a.max(), -a.min()) if np.isrealobj(a) else np.abs(a).max())
    if pivots.min() <= bound:
        raise SingularMatrix(f"pivot magnitude {pivots.min():.3e} not above {PIVOT_TOL} * max|a|"
                             f" = {bound:.3e}")
    x = b[perm].astype(np.result_type(lu, b), copy=False)
    _forward(lu, x)
    _backward(lu, x)
    residual = np.max(np.abs(a @ x - b))
    if residual > 1e-10 * max(np.max(np.abs(b)), 1e-300):
        raise SingularMatrix(f"solve residual {residual:.3e} too large; matrix ill-conditioned")
    return x


# The factorization splits off left blocks of at most _PANEL columns and
# halves each down to single columns; a substitution halves its triangle
# down to _LEAF rows, which it solves one row at a time.
_PANEL = 256
_LEAF = 16


def _lu(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting of a square ``a``: ``a[perm] = L @ U``, with
    L (unit diagonal) below the diagonal of ``lu`` and U on and above it."""
    lu = np.array(a, dtype=np.result_type(a, float))
    perm = np.arange(len(lu))
    # a strip of the update holds at most 1/8 of the matrix's entries
    _factor(lu, perm, 0, len(lu), max(1, lu.size // 8))
    return lu, perm


def _factor(lu: np.ndarray, perm: np.ndarray, c0: int, c1: int, budget: int) -> None:
    """Factor columns c0:c1 of ``lu`` (rows c0 on) in place, L below the
    diagonal and U on and above it, swapping whole rows of ``lu`` and ``perm``.

    The left block (at most _PANEL columns) is factored first; the rows it
    covers of the right block become U by forward substitution, and the rows
    below lose the left block's product in strips of at most ``budget``
    entries, so no temporary is as large as the matrix.  Then the right
    block is factored.
    """
    if c1 - c0 == 1:
        p = c0 + int(np.abs(lu[c0:, c0]).argmax())
        if p != c0:
            lu[[c0, p]] = lu[[p, c0]]
            perm[[c0, p]] = perm[[p, c0]]
        if lu[c0, c0] != 0:
            lu[c0 + 1:, c0] /= lu[c0, c0]
        return
    mid = c0 + min(_PANEL, (c1 - c0) // 2)
    _factor(lu, perm, c0, mid, budget)
    _forward(lu[c0:mid, c0:mid], lu[c0:mid, mid:c1])
    rows = max(1, budget // (c1 - mid))
    for i in range(mid, lu.shape[0], rows):
        lu[i:i + rows, mid:c1] -= lu[i:i + rows, c0:mid] @ lu[c0:mid, mid:c1]
    _factor(lu, perm, mid, c1, budget)


def _forward(lu: np.ndarray, y: np.ndarray) -> None:
    """Overwrite ``y`` with L^-1 y, L the unit lower triangle of ``lu``."""
    w = lu.shape[0]
    if w <= _LEAF:
        for r in range(1, w):
            y[r] -= lu[r, :r] @ y[:r]
        return
    h = w // 2
    _forward(lu[:h, :h], y[:h])
    y[h:] -= lu[h:, :h] @ y[:h]
    _forward(lu[h:, h:], y[h:])


def _backward(lu: np.ndarray, y: np.ndarray) -> None:
    """Overwrite ``y`` with U^-1 y, U the upper triangle of ``lu``."""
    w = lu.shape[0]
    if w <= _LEAF:
        for r in range(w - 1, -1, -1):
            y[r] = (y[r] - lu[r, r + 1:] @ y[r + 1:]) / lu[r, r]
        return
    h = w // 2
    _backward(lu[h:, h:], y[h:])
    y[:h] -= lu[:h, h:] @ y[h:]
    _backward(lu[:h, :h], y[:h])


class SparseMatrix:
    """A real dim x dim matrix as its nonzero entries in row-major order: the
    sorted keys row * dim + col, each once, and their values.  The
    constructor takes entries in any order, sums repeated ones from 0 one at
    a time in the order given (as scipy.sparse adds matrices) and drops
    zeros; a NaN stays, so every comparison sees it."""

    _CHUNK = 1 << 16  # a weighted sum merges at least this many entries at a time

    def __init__(self, dim: int, keys, values):
        keys, values = np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=float)
        if not (keys[1:] > keys[:-1]).all():
            order = keys.argsort(kind="stable")
            keys, values = keys[order], values[order]
            first = np.concatenate([[True], keys[1:] != keys[:-1]])
            sums = np.zeros(np.count_nonzero(first))
            np.add.at(sums, np.cumsum(first) - 1, values)
            keys, values = keys[first], sums
        kept = values != 0
        self.dim, self.keys, self.values = dim, keys[kept], values[kept]

    @classmethod
    def from_entries(cls, dim: int, rows, cols, values) -> "SparseMatrix":
        return cls(dim, np.asarray(rows, dtype=np.int64) * dim + cols, values)

    @classmethod
    def weighted_sum(cls, dim: int, parts) -> "SparseMatrix":
        """sum(w * m for w, m in parts), each entry summed in the parts' order.
        Parts are merged in chunks at least as large as the sum so far, so no
        work array is much larger than the result."""
        keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for weight, mat in parts:
            keys.append(mat.keys)
            values.append(weight * mat.values)
            if sum(map(len, keys[1:])) >= max(len(keys[0]), cls._CHUNK):
                total = cls(dim, np.concatenate(keys), np.concatenate(values))
                keys, values = [total.keys], [total.values]
        return cls(dim, np.concatenate(keys), np.concatenate(values))

    @property
    def T(self) -> "SparseMatrix":
        rows, cols = np.divmod(self.keys, self.dim)
        return SparseMatrix.from_entries(self.dim, cols, rows, self.values)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """The product, each entry summed over the inner index in order."""
        rows, inner = np.divmod(self.keys, self.dim)
        # other's row r is other.keys[starts[r]:starts[r + 1]]
        starts = np.searchsorted(other.keys, np.arange(self.dim + 1) * self.dim)
        first, counts = starts[inner], starts[inner + 1] - starts[inner]
        # the entries of other each of self's entries multiplies, in order
        picks = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
        return SparseMatrix.from_entries(self.dim, np.repeat(rows, counts),
                                         other.keys[picks] % self.dim,
                                         np.repeat(self.values, counts) * other.values[picks])

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out.ravel()[self.keys] = self.values
        return out

    def max_abs_difference(self, other: "SparseMatrix") -> float:
        """max |self - other|: 0.0 when equal, NaN when either holds a NaN."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"matrix sizes differ: {self.dim} vs {other.dim}")
        difference = SparseMatrix.weighted_sum(self.dim, [(1.0, self), (-1.0, other)])
        return float(np.max(np.abs(difference.values), initial=0.0))


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, entries omega**(j*k)/sqrt(n) with omega = exp(+2j*pi/n)."""
    n = integer(n, "n", 1)
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def build_unit_circulant(n: int) -> np.ndarray:
    """Cyclic down-shift permutation L: |j> -> |(j+1) mod n>."""
    return np.roll(np.eye(integer(n, "n", 2)), 1, axis=0)


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|<u|v>| for normalized states; invariant under global phase."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"state shapes differ: {u.shape} vs {v.shape}")
    return float(np.abs(np.vdot(u, v)))


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit 2-norm, preserving direction (and a real vector real).

    Dividing by max|v| first keeps the norm from underflowing or
    overflowing, so any finite vector with a nonzero entry normalizes.
    """
    v = np.asarray(v)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot normalize a vector with a non-finite entry")
    scale = np.max(np.abs(v), initial=0.0)
    if scale == 0:
        raise ZeroVector("cannot normalize a zero vector")
    v = v / scale
    return v / np.linalg.norm(v)


def integer(value, what: str, minimum: int | None = None, error=ValueError) -> int:
    """``value`` as an int: a bool or a float (8.0 included) raises TypeError,
    not truncated, and a value below ``minimum`` raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value}")
    return value


def power_of_two(n, what: str, minimum: int, error=ValueError) -> int:
    """log2 of ``n``, an integer power of two >= ``minimum``; ``error`` otherwise."""
    n = integer(n, what, minimum, error)
    q = n.bit_length() - 1
    if n != 1 << q:
        raise error(f"{what} must be a power of two >= {minimum}, got {n}")
    return q


def real(value, what: str) -> float:
    """``value`` as a float; a bool, a string or a complex number is rejected, not converted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float array, each entry checked by ``real``."""
    entries = np.asarray(values, dtype=object)
    return np.array([real(v, what) for v in entries.flat], dtype=float).reshape(entries.shape)


def num_qubits(v: np.ndarray) -> int:
    """Qubit count of a statevector; its length must be a power of two."""
    return power_of_two(np.asarray(v).shape[0], "statevector length", 1, DimensionMismatch)


def basis_index(n_qubits: int, index) -> int:
    """``index`` as a basis-state index on n_qubits: an integer in [0, 2**n_qubits)."""
    index = integer(index, "index")
    if not 0 <= index < (1 << n_qubits):
        raise DimensionMismatch(f"index {index} out of range for {n_qubits} qubits")
    return index


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n_qubits."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[basis_index(n_qubits, index)] = 1.0
    return state


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random statevector (normalized complex Gaussian)."""
    dim = 1 << n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(vec)
