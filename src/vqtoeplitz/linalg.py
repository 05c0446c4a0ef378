"""Exact dense linear algebra used as the classical ground truth.

Everything in here is deliberately brute force: dense matrices, an O(n^2)
DFT matrix, LU with partial pivoting.  These routines are the oracle that
every circuit and every decomposition in the package is checked against,
so clarity beats speed.

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
import warnings

import numpy as np
import scipy.linalg

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
    """Solve ``a @ x = b`` by LU with partial pivoting.

    Raises SingularMatrix when any pivot magnitude drops below 1e-12 or
    the residual fails the 1e-10 * ||b||_inf bound.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {a.shape[0]}")
    with warnings.catch_warnings():
        # singularity is detected by the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_TOL:
        raise SingularMatrix(f"pivot magnitude {pivots.min():.3e} below {PIVOT_TOL}")
    x = scipy.linalg.lu_solve((lu, piv), b)
    residual = np.max(np.abs(a @ x - b))
    if residual > 1e-10 * max(np.max(np.abs(b)), 1e-300):
        raise SingularMatrix(f"solve residual {residual:.3e} too large; matrix ill-conditioned")
    return x


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
    overflowing, so any vector with a nonzero entry normalizes.
    """
    scale = np.max(np.abs(v), initial=0.0)
    if scale == 0:
        raise ZeroVector("cannot normalize a zero vector")
    v = np.asarray(v) / scale
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


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on n_qubits."""
    if not 0 <= index < (1 << n_qubits):
        raise DimensionMismatch(f"index {index} out of range for {n_qubits} qubits")
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random statevector (normalized complex Gaussian)."""
    dim = 1 << n_qubits
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return normalize(vec)
