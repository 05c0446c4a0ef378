"""Banded Toeplitz machinery.

A banded Toeplitz matrix T with coefficients ``t_l`` on offsets |l| <= K
is the top-left n x n block of sum_l t_l L^l, with L the cyclic down-shift
on 2n points: the padding keeps the wrap-around of each shift out of the
block.  Each L^l is ``circuits.controlled_Ll_circuit``, a tower of
single-qubit phase gates (``phase_spectrum``) between a QFT pair; its
block is ``shift_gather``, the one the cost and the classical multiply read.

Both ``toeplitz`` CLI modes scale a band by one rule, ``unit_band``: the
power of two that brings max|t_l| into [1/2, 1).  The scale is exact for an
ordinary band, so a band and 2^j times it solve alike, and neither the
Gram band nor ||T v0|| overflows.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DimensionMismatch, check_dense, integer, power_of_two, real


class NotBanded(ValueError):
    """Coefficients violate the band structure or the band-width guard."""


class ToeplitzSpec:
    """Banded Toeplitz matrix given by offset -> real coefficient.

    Offset l > 0 is the l-th subdiagonal (entry (i, i-l) reading (i,k) = t_{i-k}),
    l < 0 the superdiagonals.  Each offset is an integer (a bool or a float
    is rejected, not truncated).  Zero coefficients are dropped; one that is
    not a real number (a bool, a string, a complex number) is rejected.  The
    band width is guarded by K <= 2*(log2 n)**2, a concrete polylog budget.
    """

    def __init__(self, n: int, coeffs: dict[int, float]):
        self.n = integer(n, "n", 1)
        values = {
            integer(l, "each offset"): real(t, "each coefficient") for l, t in coeffs.items()
        }
        self.coeffs = {l: t for l, t in values.items() if t != 0}
        if not all(np.isfinite(t) for t in self.coeffs.values()):
            raise ValueError("coefficients must be finite")
        k = self.band
        if k >= n:
            raise NotBanded(f"offset {k} out of range for size {n}")
        guard = 2.0 * math.log2(self.n) ** 2  # math.log2 takes an int of any size
        if k > guard:
            raise NotBanded(f"band K={k} exceeds polylog guard 2*(log2 n)^2 = {guard:.1f}")

    @property
    def band(self) -> int:
        """K, the largest occupied |offset|."""
        return max((abs(l) for l in self.coeffs), default=0)

    def __repr__(self):
        band = {l: self.coeffs[l] for l in sorted(self.coeffs)}
        return f"ToeplitzSpec(n={self.n}, coeffs={band})"

    def __eq__(self, other):
        return (
            isinstance(other, ToeplitzSpec)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )


def unit_band(spec: ToeplitzSpec) -> ToeplitzSpec:
    """The band times the power of two that brings max|t_l| into [1/2, 1)
    (an empty band is left as it is).  Each coefficient keeps its bits
    unless it ends below the normal range, 2^-1022: then it loses bits, or
    is dropped as 0, as for a band whose coefficients span more than
    2^1021 from the largest."""
    shift = math.frexp(max((abs(t) for t in spec.coeffs.values()), default=0.0))[1]
    return ToeplitzSpec(spec.n, {l: math.ldexp(t, -shift) for l, t in spec.coeffs.items()})


def band_sparse(spec: ToeplitzSpec) -> scipy.sparse.csr_matrix:
    """The band as an n x n CSR matrix, the one construction every view of
    it reads.  Offset l > 0 is the l-th subdiagonal, scipy's diagonal -l."""
    import scipy.sparse  # here, so that importing the package does not load it

    coeffs = spec.coeffs or {0: 0.0}  # scipy needs at least one diagonal
    return scipy.sparse.diags([np.full(spec.n - abs(l), t) for l, t in coeffs.items()],
                              [-l for l in coeffs], shape=(spec.n, spec.n), format="csr")


def toeplitz_to_dense(spec: ToeplitzSpec) -> np.ndarray:
    """Dense n x n matrix of the band, within the dense cap."""
    check_dense(spec.n, "size")
    return band_sparse(spec).toarray()


def phase_spectrum(n: int, power: int) -> tuple[float, ...]:
    """Per-qubit phases realizing the l-th power of the size-n root-of-unity
    diagonal: qubit j carries the phase gate angle (l * 2*pi*2**j / n) mod
    2*pi, and the tensor product over all log2(n) qubits is diag(omega**(i*l))."""
    num_qubits = power_of_two(n, "n", 2)
    power = integer(power, "power")
    return tuple(
        float((power * 2.0 * np.pi * (1 << j) / n) % (2.0 * np.pi)) for j in range(num_qubits)
    )


def phase_spectrum_diagonal(phases: tuple[float, ...]) -> np.ndarray:
    """Dense diagonal realized by the tensor product of the phase gates."""
    diag = np.ones(1, dtype=complex)
    for theta in reversed(phases):  # qubit 0 is least significant
        diag = np.kron(diag, np.array([1.0, np.exp(1j * theta)]))
    # kron above builds (high qubit) x ... x (low qubit); reversed() plus this
    # ordering leaves entry i = prod_j exp(1j*theta_j*bit_j(i)).
    return diag


def shift_gather(power: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """L^power on the zero-padded register, the top-left n x n block, as a
    signed gather (L^power v)[i] = sign[i] * v[perm[i]]: perm = i - power
    clipped to the register and sign = [0 <= i - power < n]."""
    source = np.arange(n) - power
    return np.clip(source, 0, n - 1), ((source >= 0) & (source < n)).astype(float)


def classical_toeplitz_matvec(spec: ToeplitzSpec, v: np.ndarray) -> np.ndarray:
    """Direct banded multiply, O(K n): sum_l t_l L^l v."""
    v = np.asarray(v)
    if v.shape[0] != spec.n:
        raise DimensionMismatch(f"vector length {v.shape[0]} != n = {spec.n}")
    out = np.zeros(spec.n, dtype=np.result_type(v, float))
    for l, t in spec.coeffs.items():
        perm, sign = shift_gather(l, spec.n)
        out += t * (sign * v[perm])
    return out


def band_autocorrelation(spec: ToeplitzSpec) -> ToeplitzSpec:
    """Band of the Gram matrix T^T T, ignoring finite-size corners.

    The coefficients are the discrete autocorrelation of the band,
    u_m = sum_l t_l t_{l+m}; the band width doubles to 2K.  The
    dropped corner entries are produced by ``corner_corrections``.
    """
    out: dict[int, float] = {}
    for m in range(-2 * spec.band, 2 * spec.band + 1):
        u = sum(t * spec.coeffs.get(l + m, 0.0) for l, t in spec.coeffs.items())
        if u != 0:
            out[m] = u
    return ToeplitzSpec(spec.n, out)


def corner_corrections(spec: ToeplitzSpec) -> dict[tuple[int, int], float]:
    """Entries of the corner matrix M with T^T T = Toeplitz(autocorr) - M.

    The Toeplitz extension of the Gram band overcounts products whose
    summation index runs off the matrix; the excess is supported on the
    K x K corners, and M is symmetric:

        M[i, j]             = sum_{k>=1} t_{-k-i} t_{-k-j}   (top left)
        M[n-1-i, n-1-j]    += sum_{k>=1} t_{k+i} t_{k+j}     (bottom right)
    """
    n, band = spec.n, spec.band
    out: dict[tuple[int, int], float] = {}

    def add(i, j, val):
        if val != 0:
            out[(i, j)] = out.get((i, j), 0.0) + val

    for i in range(band):
        for j in range(band):
            top = sum(
                spec.coeffs.get(-k - i, 0.0) * spec.coeffs.get(-k - j, 0.0)
                for k in range(1, band + 1)
            )
            add(i, j, top)
            bottom = sum(
                spec.coeffs.get(k + i, 0.0) * spec.coeffs.get(k + j, 0.0)
                for k in range(1, band + 1)
            )
            add(n - 1 - i, n - 1 - j, bottom)
    return {ij: float(v) for ij, v in out.items() if v != 0}
