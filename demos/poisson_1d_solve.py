"""Variational solve of the 1-D Poisson system on 3 qubits.

Walks through the whole pipeline: discretize, decompose, assemble the
cost E(theta) = <psi|A^2|psi> - |<b|A|psi>|^2 from the two term lists,
optimize with random restarts, compare the optimized state against the
exact dense solution, and print each term's share of the final cost.
"""

import numpy as np

from vqtoeplitz import (
    AnsatzSpec,
    Cost,
    OptimizerConfig,
    PoissonProblem,
    build_poisson_1d,
    decompose_dirichlet_1d,
    dense_solve,
    fidelity,
    normalize,
    optimize,
    prepare_b,
)
from vqtoeplitz.decomposition import count_terms
from vqtoeplitz.vqa import ansatz_state

problem = PoissonProblem(dimension=1, qubits_per_axis=3)  # n = 8 grid points
a = build_poisson_1d(problem)
b = prepare_b(problem)  # uniform right-hand side = H|0> on every qubit

print("operator A (tridiagonal [-1, 2, -1]):")
print(a.astype(int))

a_terms, a2_terms = decompose_dirichlet_1d(problem.n)
print(f"\nbracket estimations per cost evaluation: "
      f"{count_terms(a_terms)} for <b|A|psi>, {count_terms(a2_terms)} for <psi|A^2|psi>")

# classical reference solution
x = normalize(dense_solve(a, np.asarray(b)))
print("\nexact solution state:", np.round(x, 4))

ansatz = AnsatzSpec(num_qubits=3, depth=2)  # 6 parameters
cost = Cost(a_terms, a2_terms, b, ansatz)  # what make_linear_system_cost(problem, ansatz) builds
config = OptimizerConfig(restarts=5, seed=1)

print(f"\noptimizing {ansatz.param_count} parameters, {config.restarts} restarts ...")
trace = optimize(cost, ansatz, config, reference_state=x)

psi = ansatz_state(ansatz, trace.best_params)
print(f"best cost      {trace.best_cost:.3e}   (restart {trace.best_restart})")
print(f"fidelity |<x|psi>| = {fidelity(x, psi):.8f}")
print("optimized state:   ", np.round(psi, 4))

# cost/fidelity history of the winning restart, thinned for display
history = [r for r in trace.records if r.restart == trace.best_restart]
print("\niter    best cost      fidelity")
for rec in history[:: max(1, len(history) // 10)]:
    print(f"{rec.iteration:5d}   {rec.cost:.3e}    {rec.fidelity:.6f}")

# per-term values and contributions at the optimum
print("\nterm                      value       contribution")
for row in cost.report(trace.best_params)[1]:
    print(f"{row.label:24s}  {row.value:+.6f}  {row.contribution:+.3e}")
