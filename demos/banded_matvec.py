"""Variational matrix-vector multiplication with a banded Toeplitz matrix.

The target is the normalized image T|v0>.  The cost is the linear-system
cost with G = I: A is the transpose of T_s = T/||T v0|| and b = v0, so

    E(theta) = 1 - <v0|T_s^T|psi>^2 = 1 - <psi|T_s|v0>^2,

one banded bracket per evaluation, vanishing exactly at the target state.
"""

import numpy as np

from vqtoeplitz import AnsatzSpec, OptimizerConfig, ToeplitzSpec, fidelity, optimize
from vqtoeplitz.linalg import normalize
from vqtoeplitz.toeplitz import classical_toeplitz_matvec
from vqtoeplitz.vqa import ansatz_state, make_matvec_cost, matvec_target_state

rng = np.random.default_rng(7)

spec = ToeplitzSpec(8, {-1: 0.5, 0: 2.0, 1: -1.0, 2: 0.25})
v0 = normalize(rng.standard_normal(8))
target = matvec_target_state(spec, v0)

print("band coefficients:", {l: spec.coeffs[l] for l in sorted(spec.coeffs)})
print("classical image T v0 (normalized):", np.round(target, 4))

ansatz = AnsatzSpec(num_qubits=3, depth=3)
cost = make_matvec_cost(spec, v0, ansatz)
print(f"\ncost at random parameters: {cost(rng.uniform(0, 2*np.pi, ansatz.param_count)):.4f}")

trace = optimize(
    cost,
    ansatz,
    OptimizerConfig(restarts=5, seed=3),
    reference_state=target,
)
psi = ansatz_state(ansatz, trace.best_params)
print(f"optimized cost:   {trace.best_cost:.3e}")
print(f"fidelity to T v0: {fidelity(target, psi):.8f}")

# sanity: the classical band multiply agrees with the dense product
from vqtoeplitz import toeplitz_to_dense

err = np.max(np.abs(classical_toeplitz_matvec(spec, v0) - toeplitz_to_dense(spec) @ v0))
print(f"classical band multiply vs dense: {err:.1e}")
