"""Counts, power-of-two sizes and the dense cap follow one rule in every
entry point: a bool or a float is a TypeError, never truncated; a value too
small, or not a power of two, is a ValueError (or the subclass each entry
point documents); a dense construction past the cap is a DimensionOverflow.
An index past its range, a circuit of the wrong width or an operator off its
term list's grid is a DimensionMismatch; a vector with a non-finite entry,
or a cost's b that is not a unit vector, is a ValueError, and so is a
conjugate pair W + W^T in a cost's A list, whose brackets <b|W|psi> and
<b|W^T|psi> differ; a projector pattern no preparation circuit realizes is
an UnsupportedPattern."""

import numpy as np
import pytest

from vqtoeplitz import circuits, decomposition as deco, linalg, vqa
from vqtoeplitz.circuits import Circuit
from vqtoeplitz.linalg import DimensionMismatch, DimensionOverflow
from vqtoeplitz.poisson import PoissonProblem, prepare_b
from vqtoeplitz.toeplitz import ToeplitzSpec, toeplitz_to_dense


def _cost(**kwargs):
    a_terms, g_terms = deco.decompose_dirichlet_1d(4)
    b = prepare_b(PoissonProblem(1, 2))
    return vqa.Cost(a_terms, g_terms, b, vqa.AnsatzSpec(2, 1), **kwargs)


def _cost_on(op, b=None):
    """A 1-D n = 8 cost whose A list holds ``op`` alone."""
    a_terms = deco.TermList((deco.DecompositionTerm(1.0, op),), 8, 1)
    b = prepare_b(PoissonProblem(1, 3)) if b is None else b
    return vqa.Cost(a_terms, deco.decompose_dirichlet_1d(8)[1], b, vqa.AnsatzSpec(3, 1))


def _g_cost_on(op):
    """A 1-D n = 8 cost whose G list holds ``op`` alone."""
    g_terms = deco.TermList((deco.DecompositionTerm(1.0, op),), 8, 1)
    return vqa.Cost(deco.decompose_dirichlet_1d(8)[0], g_terms, prepare_b(PoissonProblem(1, 3)),
                    vqa.AnsatzSpec(3, 1))


def _conjugate_pair_cost(op, dimension):
    """A cost on 4 qubits whose A list is op + op^T, one conjugate-pair term,
    and whose G list is the identity."""
    n = 16 if dimension == 1 else 4
    a_terms = deco.TermList((deco.DecompositionTerm(1.0, op, conjugate_pair=True),), n, dimension)
    identity = deco.DecompositionTerm(1.0, deco.TensorWord(("I",) * dimension))
    g_terms = deco.TermList((identity,), n, dimension)
    return vqa.Cost(a_terms, g_terms, prepare_b(PoissonProblem(dimension, 4 // dimension)),
                    vqa.AnsatzSpec(4, 1))


REPEATED_INDEX = deco.ProjectorPair(((0, 0), (0, 0)))


def _hadamard_test(shots):
    prep = circuits.uniform_prep_circuit(2)
    return circuits.hadamard_test(circuits.controlled_Ll_circuit(4, 1), prep, prep, shots=shots)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: _cost(shots=2.5), TypeError),
        (lambda: _cost(shots=True), TypeError),
        (lambda: _cost(seed=-1), ValueError),
        (lambda: circuits.sample_shots(Circuit(1), None, 2.5, 0), TypeError),
        (lambda: _cost(shots=2**63), ValueError),
        (lambda: circuits.sample_shots(Circuit(1), None, 2**63, 0), ValueError),
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
        (lambda: circuits.basis_prep_circuit(3, 9), DimensionMismatch),
        (lambda: linalg.basis_state(3, 1.5), TypeError),
        (lambda: circuits.hadamard_test(circuits.controlled_Ll_circuit(4, 1),
                                        circuits.uniform_prep_circuit(3),
                                        circuits.uniform_prep_circuit(3)), DimensionMismatch),
        (lambda: linalg.normalize([1.0, np.nan]), ValueError),
        (lambda: vqa.make_toeplitz_system_cost(ToeplitzSpec(8, {0: 1.0}), [np.nan] + [1.0] * 7,
                                               vqa.AnsatzSpec(3, 1)), ValueError),
        (lambda: _cost_on(ToeplitzSpec(8, {0: 1.0}), np.ones(8)), ValueError),
        (lambda: _cost_on(deco.ProjectorPair(((-1, -1),))), DimensionMismatch),
        (lambda: _cost_on(ToeplitzSpec(16, {0: 1.0})), DimensionMismatch),
        (lambda: _cost_on(deco.TensorWord(("L", "L"))), DimensionMismatch),
        (lambda: circuits.bell_pair_circuits(REPEATED_INDEX, 3), circuits.UnsupportedPattern),
        (lambda: _g_cost_on(REPEATED_INDEX), circuits.UnsupportedPattern),
        (lambda: _conjugate_pair_cost(deco.TensorWord(("L", "X")), 2), ValueError),
        (lambda: _conjugate_pair_cost(ToeplitzSpec(16, {1: 1.0, 0: 2.0}), 1), ValueError),
        (lambda: Circuit(2).x(True), TypeError),
        (lambda: Circuit(2).x(1.0), TypeError),
        (lambda: Circuit(2.5), TypeError),
        (lambda: deco.TermList((), 8, 1, "label"), TypeError),
    ],
    ids=["cost-shots-fraction", "cost-shots-boolean", "cost-seed-negative",
         "sample-shots-fraction", "cost-shots-past-int64", "sample-shots-past-int64",
         "hadamard-shots-fraction", "ansatz-qubits-fraction",
         "ansatz-depth-boolean", "optimizer-iters-fraction", "optimizer-restarts-boolean",
         "optimizer-seed-negative", "band-offset-fraction", "band-offset-boolean",
         "band-dense-past-cap", "shift-power-fraction", "power-of-two-six", "power-of-two-below-minimum",
         "power-of-two-zero", "power-of-two-float", "power-of-two-boolean",
         "power-of-two-own-error", "basis-prep-index-past-range", "basis-state-index-fraction",
         "hadamard-controlled-too-narrow", "normalize-nan", "system-cost-nan-b",
         "cost-b-not-unit", "cost-projector-negative-index", "cost-band-other-size",
         "cost-word-other-dimension", "projector-repeated-index",
         "cost-projector-repeated-index", "cost-a-word-conjugate-pair",
         "cost-a-band-conjugate-pair", "circuit-qubit-boolean", "circuit-qubit-fraction",
         "circuit-count-fraction", "termlist-fourth-positional"],
)
def test_rule_rejects(build, error):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


def test_largest_shot_count_runs():
    assert np.isfinite(_cost(shots=circuits.MAX_SHOTS)(np.zeros(2)))
    counts = circuits.sample_shots(Circuit(1), None, circuits.MAX_SHOTS, 0)
    assert counts.tolist() == [circuits.MAX_SHOTS, 0]


@pytest.mark.parametrize("n, log2", [(1, 0), (2, 1), (8, 3), (2**40, 40)])
def test_power_of_two_returns_log2(n, log2):
    assert linalg.power_of_two(n, "n", 1) == log2
