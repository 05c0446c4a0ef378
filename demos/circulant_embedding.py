"""How a banded Toeplitz bracket becomes a handful of phase-tower circuits.

A banded Toeplitz matrix embeds as the top-left block of a circulant of
twice the size.  The circulant is diagonalized by the DFT, so its bracket
splits into brackets of cyclic-shift powers, and each power is a QFT pair
around single-qubit phase gates.
"""

import numpy as np

from vqtoeplitz import (
    ToeplitzSpec,
    circulant_expectation_terms,
    circulant_spectrum,
    circulant_to_dense,
    dft_matrix,
    embed_in_circulant,
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

embedded = embed_in_circulant(spec)
dense = circulant_to_dense(embedded).real
print("\nembedded 2n x 2n circulant (top-left block is the original):")
print(dense.astype(int))
print("first column:", np.asarray(embedded.first_column).real)

print("\nbracket terms (coefficient, shift power):")
print(circulant_expectation_terms(embedded))

# spectral identity: C = F^-1 diag(spectrum) F
f = dft_matrix(2 * n)
spectrum = circulant_spectrum(embedded)
err = np.max(np.abs(dense - f.conj().T @ np.diag(spectrum) @ f))
print(f"\nspectral identity error: {err:.1e}")

# the QFT circuit realizes exactly that DFT matrix
err = np.max(np.abs(circuit_unitary(qft_circuit(3)) - f))
print(f"QFT circuit vs DFT matrix: {err:.1e}")

# each shift power is a tower of single-qubit phases between the QFT pair
tower = phase_spectrum(2 * n, 1)
print(f"\nphase tower for one shift (angles per qubit): {np.round(tower.phases, 4)}")
print("tensor product reproduces the root-of-unity diagonal:",
      np.allclose(phase_spectrum_diagonal(tower),
                  np.exp(2j * np.pi * np.arange(2 * n) / (2 * n))))

# expectation check on a random embedded state
rng = np.random.default_rng(0)
psi = np.concatenate([random_state(2, rng), np.zeros(n)])
total = 0j
for coeff, power in circulant_expectation_terms(embedded):
    circ = controlled_Ll_circuit(2 * n, power % (2 * n))
    # apply the controlled shift with the control forced on
    forced = np.concatenate([np.zeros(2 * n), psi])
    shifted = run_statevector(circ, forced)[2 * n:]
    total += coeff * np.vdot(psi, shifted)
exact = psi.conj() @ circulant_to_dense(embedded) @ psi
print(f"\nshift-term sum vs dense bracket: {abs(total - exact):.1e}")
