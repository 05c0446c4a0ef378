"""Sampled estimation: Hadamard-test bias and projector probabilities.

Exact mode reads expectation values off the statevector; shot mode draws
multinomial samples from it.  The estimates concentrate at the usual
1/sqrt(shots) rate.
"""

import numpy as np

from vqtoeplitz import ProjectorPair
from vqtoeplitz.circuits import (
    controlled_Ll_circuit,
    hadamard_test,
    projector_expectation,
    state_prep_circuit,
)
from vqtoeplitz.linalg import random_state

rng = np.random.default_rng(1)
n = 8
psi = random_state(3, rng)
embedded = np.concatenate([psi, np.zeros(n)])
prep = state_prep_circuit(embedded)
controlled = controlled_Ll_circuit(2 * n, 1)

exact = hadamard_test(controlled, prep, prep, "real")
print(f"exact shift bracket (real part): {exact:+.6f}\n")
print("shots      estimate     |error|    3/sqrt(shots)")
for shots in (100, 1_000, 10_000, 100_000, 1_000_000):
    est = hadamard_test(controlled, prep, prep, "real", shots=shots, seed=42)
    print(f"{shots:8d}   {est:+.6f}   {abs(est - exact):.6f}   {3/np.sqrt(shots):.6f}")

pair = ProjectorPair(((0, 1),), symmetrize=True)
exact = projector_expectation(pair, psi)
print(f"\nexact edge-pair expectation: {exact:+.6f}")
for shots in (1_000, 100_000):
    est = projector_expectation(pair, psi, shots=shots, seed=7)
    print(f"{shots:8d} shots: {est:+.6f}  (error {abs(est - exact):.6f})")

# estimates are reproducible for a fixed seed
a = hadamard_test(controlled, prep, prep, "real", shots=5000, seed=11)
b = hadamard_test(controlled, prep, prep, "real", shots=5000, seed=11)
print(f"\nsame seed, same estimate: {a == b}")
