"""Term lists: reconstruction exactness, counts, letters, serialization."""

import json
from functools import reduce

import numpy as np
import pytest

from vqtoeplitz.decomposition import (
    _LETTER_FACTORS,
    DecompositionTerm,
    ProjectorPair,
    TensorWord,
    TermList,
    count_terms,
    decompose_banded_gram,
    decompose_dirichlet_1d,
    decompose_dirichlet_dd,
    decompose_dirichlet_dd_squared,
    decompose_unified_1d,
    dense_letter,
    reconstruct_dense,
    reconstruct_sparse,
    termlist_to_jsonable,
    word_permutation,
    word_to_dense,
)
from vqtoeplitz.linalg import build_unit_circulant
from vqtoeplitz.poisson import BoundaryCondition, PoissonProblem, build_poisson_1d, build_poisson_dd
from vqtoeplitz.verification import verify_problem_terms
from vqtoeplitz.vqa import default_term_lists
from vqtoeplitz.toeplitz import NotBanded, ToeplitzSpec, toeplitz_to_dense


def dirichlet_dense(n):
    return build_poisson_1d(PoissonProblem(1, n.bit_length() - 1))


def unified_dense(n, c, d):
    a = dirichlet_dense(n)
    a[0, 0] -= c
    a[n - 1, n - 1] -= d
    return a


# ---------------------------------------------------------------------------
# 1-D


def test_dirichlet_1d_shapes_and_corner_pair():
    a_terms, a2_terms = decompose_dirichlet_1d(8)
    assert len(a_terms.terms) == 1
    assert len(a2_terms.terms) == 2
    corner = a2_terms.terms[1]
    assert corner.coefficient == -1.0
    assert corner.op == ProjectorPair(((0, 0), (7, 7)))


@pytest.mark.parametrize("n", [4, 8, 16])
def test_dirichlet_1d_reconstruction(n):
    a_terms, a2_terms = decompose_dirichlet_1d(n)
    dense = dirichlet_dense(n)
    assert np.max(np.abs(reconstruct_dense(a_terms) - dense)) == 0.0
    assert np.max(np.abs(reconstruct_dense(a2_terms) - dense @ dense)) == 0.0


def test_unified_collapses_at_zero_corners():
    a_terms, a2_terms = decompose_unified_1d(8, 0.0, 0.0)
    assert len(a_terms.terms) == 1
    coeffs = [t.coefficient for t in a2_terms.terms]
    assert coeffs == [1.0, -1.0, -1.0]  # band, then both corner projectors at -(4*0+1-0)


def test_unified_corner_coefficient_value():
    _, a2_terms = decompose_unified_1d(8, 0.8, 0.1)
    m2_term = a2_terms.terms[1]
    assert m2_term.op == ProjectorPair(((0, 0),))
    assert m2_term.coefficient == pytest.approx(-3.56)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_unified_reconstruction_random_corners(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        c, d = rng.uniform(0.0, 1.0, 2)
        a_terms, a2_terms = decompose_unified_1d(n, c, d)
        dense = unified_dense(n, c, d)
        assert np.max(np.abs(reconstruct_dense(a_terms) - dense)) <= 1e-12
        assert np.max(np.abs(reconstruct_dense(a2_terms) - dense @ dense)) <= 1e-12


# ---------------------------------------------------------------------------
# d-dimensional


def test_dd_term_count_matrix_level():
    assert len(decompose_dirichlet_dd(2, 4).terms) == 9
    assert len(decompose_dirichlet_dd(3, 4).terms) == 13


def test_dd_reconstruction_one_dimensional():
    terms = decompose_dirichlet_dd(1, 8)
    np.testing.assert_allclose(reconstruct_dense(terms), dirichlet_dense(8), atol=1e-14)


@pytest.mark.parametrize("dim,nq", [(2, 1), (2, 2), (3, 1)])
def test_dd_reconstruction(dim, nq):
    problem = PoissonProblem(dim, nq)
    dense = build_poisson_dd(problem)
    terms = decompose_dirichlet_dd(dim, problem.n)
    np.testing.assert_allclose(reconstruct_dense(terms), dense, atol=1e-12)


@pytest.mark.parametrize("dim,nq", [(1, 2), (2, 1), (2, 2), (3, 1)])
def test_dd_squared_reconstruction(dim, nq):
    problem = PoissonProblem(dim, nq)
    dense = build_poisson_dd(problem)
    terms = decompose_dirichlet_dd_squared(dim, problem.n)
    np.testing.assert_allclose(reconstruct_dense(terms), dense @ dense, atol=1e-12)


def test_dd_squared_constant():
    terms = decompose_dirichlet_dd_squared(2, 4)
    const = terms.terms[0]
    assert const.op == TensorWord(("I", "I"))
    assert const.coefficient == pytest.approx(20.5)  # 4*4 + 9/4*2


def test_squared_routes_agree_for_one_dimension():
    _, via_band = decompose_dirichlet_1d(8)
    via_words = decompose_dirichlet_dd_squared(1, 8)
    np.testing.assert_allclose(
        reconstruct_dense(via_band), reconstruct_dense(via_words), atol=1e-12
    )


# ---------------------------------------------------------------------------
# counts


def test_bracket_counts_unified():
    a_terms, a2_terms = decompose_unified_1d(8, 0.3, 0.7)
    assert count_terms(a_terms) == 5
    assert count_terms(a2_terms) == 6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bracket_counts_dd(dim):
    assert count_terms(decompose_dirichlet_dd(dim, 4)) == 4 * dim + 1
    assert count_terms(decompose_dirichlet_dd_squared(dim, 4)) == 12 * dim * dim


def test_dirichlet_1d_bracket_counts():
    a_terms, a2_terms = decompose_dirichlet_1d(8)
    assert count_terms(a_terms) == 3  # three occupied offsets against a distinct bra
    assert count_terms(a2_terms) == 3  # two folded shifts plus one projector pair


# ---------------------------------------------------------------------------
# letters


def test_letter_algebra():
    for n in (4, 8):
        x = dense_letter("X", n)
        z = dense_letter("Z", n)
        np.testing.assert_array_equal(x @ x, np.eye(n))
        np.testing.assert_array_equal(z @ z, np.eye(n))
        np.testing.assert_array_equal(x, x.conj().T)
        np.testing.assert_allclose(x @ x.conj().T, np.eye(n), atol=1e-15)
        np.testing.assert_array_equal(dense_letter("Z2", n), np.eye(n))


def test_corner_word_is_antidiagonal_correction():
    # (X - XZ)/2 has ones exactly at (0, n-1) and (n-1, 0)
    n = 8
    word = 0.5 * dense_letter("X", n) - 0.5 * dense_letter("XZ", n)
    expected = np.zeros((n, n))
    expected[0, n - 1] = expected[n - 1, 0] = 1.0
    np.testing.assert_array_equal(word, expected)


def test_one_dimensional_operator_from_letters():
    n = 8
    a = (
        2 * np.eye(n)
        - dense_letter("L", n)
        - dense_letter("Linv", n)
        + 0.5 * dense_letter("X", n)
        - 0.5 * dense_letter("XZ", n)
    )
    np.testing.assert_array_equal(a, dirichlet_dense(n))


def test_unknown_letter():
    with pytest.raises(ValueError):
        dense_letter("Q", 4)


def _oracle_letter(name, n):
    """A letter as the product of its dense factors, built without the
    signed-permutation form the module uses."""
    ell = build_unit_circulant(n)
    base = {
        "I": np.eye(n),
        "L": ell,
        "Linv": ell.T,
        "X": np.fliplr(np.eye(n)),
        "Z": np.diag([-1.0] + [1.0] * (n - 2) + [-1.0]),
    }
    return reduce(np.matmul, [base[factor] for factor in _LETTER_FACTORS[name]])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_letters_and_words_match_dense_oracle(n):
    letters = {name: _oracle_letter(name, n) for name in _LETTER_FACTORS}
    rng = np.random.default_rng(n)
    words = [(name,) for name in letters] + [
        tuple(rng.choice(sorted(letters), size=d).tolist()) for d in (1, 2, 3) for _ in range(6)
    ]
    for word in words:
        dense = reduce(np.kron, [letters[name] for name in word])
        perm, sign = word_permutation(word, n)
        # (W v)[i] = sign[i] * v[perm[i]]: row i holds sign[i] at column perm[i], nothing else
        np.testing.assert_array_equal(dense[np.arange(n ** len(word)), perm], sign)
        assert np.count_nonzero(dense) == n ** len(word)
        np.testing.assert_array_equal(word_to_dense(TensorWord(word), n), dense)
        terms = TermList((DecompositionTerm(1.0, TensorWord(word)),), n, len(word))
        np.testing.assert_array_equal(reconstruct_dense(terms), dense)
        if len(word) == 1:
            np.testing.assert_array_equal(dense_letter(word[0], n), dense)


# ---------------------------------------------------------------------------
# misc ops


def test_reconstruct_identity_term():
    terms = TermList((DecompositionTerm(1.0, TensorWord(("I",))),), n=4, dimension=1)
    np.testing.assert_array_equal(reconstruct_dense(terms), np.eye(4))


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        DecompositionTerm(0.0, TensorWord(("I",)))


def test_termlist_serialization_round_trips_through_json():
    _, a2_terms = decompose_unified_1d(8, 0.5, 0.25)
    payload = termlist_to_jsonable(a2_terms)
    restored = json.loads(json.dumps(payload))
    assert restored[0]["op"]["kind"] == "toeplitz-band"
    assert restored[0]["coeff"] == [1.0, 0.0]
    kinds = {entry["op"]["kind"] for entry in restored}
    assert kinds == {"toeplitz-band", "projector-pair"}
    sym = [e for e in restored if e["op"].get("symmetrize")]
    assert len(sym) == 2


def test_word_serialization():
    terms = decompose_dirichlet_dd(2, 4)
    payload = termlist_to_jsonable(terms)
    assert payload[1]["op"] == {"kind": "tensor-word", "letters": ["L", "I"]}


# ---------------------------------------------------------------------------
# banded gram decomposition


def test_banded_gram_matches_dense_square():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.choice([8, 16]))
        band = int(rng.integers(0, 3))
        coeffs = {l: float(rng.standard_normal()) for l in range(-band, band + 1)}
        coeffs[0] = coeffs.get(0, 0.0) + 2.0
        spec = ToeplitzSpec(n, coeffs)
        t = toeplitz_to_dense(spec)
        np.testing.assert_allclose(
            reconstruct_dense(decompose_banded_gram(spec)), t.conj().T @ t, atol=1e-12
        )


def test_banded_gram_recovers_corner_pair_for_tridiagonal():
    terms = decompose_banded_gram(ToeplitzSpec(8, {-1: -1.0, 0: 2.0, 1: -1.0}))
    projector_terms = [t for t in terms.terms if isinstance(t.op, ProjectorPair)]
    assert {t.op.pairs[0] for t in projector_terms} == {(0, 0), (7, 7)}
    assert all(t.coefficient == -1.0 for t in projector_terms)


def test_banded_gram_guards():
    with pytest.raises(NotBanded):
        decompose_banded_gram(ToeplitzSpec(4, {-2: 1.0, 0: 1.0, 2: 1.0}))
    with pytest.raises(ValueError, match="real"):  # a complex band never reaches the Gram
        decompose_banded_gram(ToeplitzSpec(8, {0: 1.0 + 1.0j}))


# ---------------------------------------------------------------------------
# pre-solve gate

GATE_PROBLEMS = [
    PoissonProblem(1, 3),
    PoissonProblem(1, 5, BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0)),
    PoissonProblem(2, 2),
    PoissonProblem(3, 2),
]


@pytest.mark.parametrize("problem", GATE_PROBLEMS, ids=["1d", "unified", "2d", "3d"])
def test_gate_exact_on_own_term_lists(problem):
    term_lists = default_term_lists(problem)
    assert verify_problem_terms(problem, term_lists) == 0.0
    for terms in term_lists:
        np.testing.assert_array_equal(reconstruct_sparse(terms).toarray(), reconstruct_dense(terms))


def test_gate_detects_a_wrong_coefficient():
    a_terms, a2_terms = default_term_lists(PoissonProblem(1, 3))
    bad = DecompositionTerm(a2_terms.terms[0].coefficient * 1.001, a2_terms.terms[0].op)
    a2_bad = TermList((bad,) + a2_terms.terms[1:], a2_terms.n, a2_terms.dimension)
    assert verify_problem_terms(PoissonProblem(1, 3), (a_terms, a2_bad)) > 1e-3
