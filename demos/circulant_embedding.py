"""How a banded Toeplitz bracket becomes a handful of phase-tower circuits.

A banded Toeplitz matrix is the top-left block of a sum of cyclic-shift
powers on twice as many points.  The shift is diagonalized by the DFT, so
each power is a QFT pair around single-qubit phase gates, and the bracket
of the band splits into one bracket per shift power.
"""

import numpy as np

from vqtoeplitz import (
    ToeplitzSpec,
    build_unit_circulant,
    dft_matrix,
    qft_circuit,
    toeplitz_to_dense,
)
from vqtoeplitz.circuits import circuit_unitary, controlled_Ll_circuit, run_statevector
from vqtoeplitz.linalg import random_state
from vqtoeplitz.toeplitz import phase_spectrum, phase_spectrum_diagonal

n = 4
spec = ToeplitzSpec(n, {-1: -1.0, 0: 2.0, 1: -1.0})
print("Toeplitz matrix:")
print(toeplitz_to_dense(spec).astype(int))

shift = build_unit_circulant(2 * n)
padded = sum(t * np.linalg.matrix_power(shift, l % (2 * n)) for l, t in spec.coeffs.items())
print("\nsum of shift powers t_l L^l on 2n points (top-left block is the original):")
print(padded.astype(int))
print("shift powers and coefficients:", dict(sorted(spec.coeffs.items())))

# the QFT circuit realizes exactly the DFT matrix that diagonalizes the shift
f = dft_matrix(2 * n)
err = np.max(np.abs(circuit_unitary(qft_circuit(3)) - f))
print(f"\nQFT circuit vs DFT matrix: {err:.1e}")

# each shift power is a tower of single-qubit phases between the QFT pair
tower = phase_spectrum(2 * n, 1)
print(f"phase tower for one shift (angles per qubit): {np.round(tower, 4)}")
print("tensor product reproduces the root-of-unity diagonal:",
      np.allclose(phase_spectrum_diagonal(tower),
                  np.exp(2j * np.pi * np.arange(2 * n) / (2 * n))))
diagonal = sum(
    t * phase_spectrum_diagonal(phase_spectrum(2 * n, l)) for l, t in spec.coeffs.items()
)
err = np.max(np.abs(padded - f.conj().T @ np.diag(diagonal) @ f))
print(f"F^dag diag(sum of phase towers) F vs the shift sum: {err:.1e}")

# bracket check on a random state, zero-padded to the 2n-point register
rng = np.random.default_rng(0)
psi = np.concatenate([random_state(2, rng), np.zeros(n)])
total = 0j
for power, coeff in spec.coeffs.items():
    circ = controlled_Ll_circuit(2 * n, power % (2 * n))
    # apply the controlled shift with the control forced on
    forced = np.concatenate([np.zeros(2 * n), psi])
    shifted = run_statevector(circ, forced)[2 * n:]
    total += coeff * np.vdot(psi, shifted)
exact = psi[:n].conj() @ toeplitz_to_dense(spec) @ psi[:n]
print(f"\nshift-term sum vs dense Toeplitz bracket: {abs(total - exact):.1e}")
