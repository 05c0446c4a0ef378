"""Counts, power-of-two sizes and the dense cap follow one rule in every
entry point: a bool or a float is a TypeError, never truncated; a value too
small, or not a power of two, is a ValueError (or the subclass each entry
point documents); a dense construction past the cap is a DimensionOverflow."""

import pytest

from vqtoeplitz import circuits, decomposition as deco, linalg, vqa
from vqtoeplitz.circuits import Circuit
from vqtoeplitz.linalg import DimensionOverflow
from vqtoeplitz.poisson import PoissonProblem, prepare_b
from vqtoeplitz.toeplitz import ToeplitzSpec, toeplitz_to_dense


def _cost(**kwargs):
    a_terms, g_terms = deco.decompose_dirichlet_1d(4)
    b = prepare_b(PoissonProblem(1, 2))
    return vqa.Cost(a_terms, g_terms, b, vqa.AnsatzSpec(2, 1), **kwargs)


def _hadamard_test(shots):
    prep = circuits.uniform_prep_circuit(2)
    return circuits.hadamard_test(2, circuits.controlled_Ll_circuit(4, 1), prep, prep, shots=shots)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: _cost(shots=2.5), TypeError),
        (lambda: _cost(shots=True), TypeError),
        (lambda: _cost(seed=-1), ValueError),
        (lambda: circuits.sample_shots(Circuit(1), None, 2.5, 0), TypeError),
        (lambda: _hadamard_test(2.5), TypeError),
        (lambda: vqa.AnsatzSpec(2.5, 1), TypeError),
        (lambda: vqa.AnsatzSpec(3, True), TypeError),
        (lambda: vqa.OptimizerConfig(max_iters=2.5), TypeError),
        (lambda: vqa.OptimizerConfig(restarts=True), TypeError),
        (lambda: vqa.OptimizerConfig(seed=-1), ValueError),
        (lambda: ToeplitzSpec(8, {1.7: 2.0, 0: 1}), TypeError),
        (lambda: ToeplitzSpec(8, {True: 2.0, 0: 1}), TypeError),
        (lambda: toeplitz_to_dense(ToeplitzSpec(4097, {0: 1})), DimensionOverflow),
        (lambda: circuits.controlled_Ll_circuit(8, 1.5), TypeError),
        (lambda: linalg.power_of_two(6, "n", 2), ValueError),
        (lambda: linalg.power_of_two(2, "n", 4), ValueError),
        (lambda: linalg.power_of_two(0, "n", 1), ValueError),
        (lambda: linalg.power_of_two(8.0, "n", 2), TypeError),
        (lambda: linalg.power_of_two(True, "n", 1), TypeError),
        (lambda: linalg.power_of_two(3, "size", 1, linalg.DimensionMismatch),
         linalg.DimensionMismatch),
    ],
    ids=["cost-shots-fraction", "cost-shots-boolean", "cost-seed-negative",
         "sample-shots-fraction", "hadamard-shots-fraction", "ansatz-qubits-fraction",
         "ansatz-depth-boolean", "optimizer-iters-fraction", "optimizer-restarts-boolean",
         "optimizer-seed-negative", "band-offset-fraction", "band-offset-boolean",
         "band-dense-past-cap", "shift-power-fraction", "power-of-two-six", "power-of-two-below-minimum",
         "power-of-two-zero", "power-of-two-float", "power-of-two-boolean",
         "power-of-two-own-error"],
)
def test_rule_rejects(build, error):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


@pytest.mark.parametrize("n, log2", [(1, 0), (2, 1), (8, 3), (2**40, 40)])
def test_power_of_two_returns_log2(n, log2):
    assert linalg.power_of_two(n, "n", 1) == log2
