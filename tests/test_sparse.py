"""The numpy sparse matrices of the pre-solve gate against scipy.sparse, and
the gate's own rules: exact on the package's lists, NaN fails it, bounded memory."""

import dataclasses
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.sparse

from vqtoeplitz import verification
from vqtoeplitz.decomposition import (
    DecompositionTerm,
    ProjectorPair,
    TensorWord,
    TermList,
    decompose_banded_gram,
    reconstruct_sparse,
    word_permutation,
)
from vqtoeplitz.linalg import DimensionMismatch, SparseMatrix
from vqtoeplitz.poisson import (BoundaryCondition, PoissonProblem, boundary_coefficients,
                                poisson_sparse)
from vqtoeplitz.toeplitz import ToeplitzSpec, band_sparse
from vqtoeplitz.verification import run_verification, verify_problem_terms
from vqtoeplitz.vqa import default_term_lists

UNIFIED = BoundaryCondition.unified(1.0, 2.0, 3.0, 1.0)


def triplets(mat) -> tuple[np.ndarray, np.ndarray]:
    """A scipy matrix's entries as (sorted keys row * dim + col, values),
    repeated entries summed and zeros dropped."""
    coo = scipy.sparse.coo_matrix(mat)
    coo.sum_duplicates()
    coo.eliminate_zeros()
    keys = coo.row.astype(np.int64) * coo.shape[1] + coo.col
    order = np.argsort(keys)
    return keys[order], coo.data[order]


def assert_same_entries(mat: SparseMatrix, reference) -> None:
    keys, values = triplets(reference)
    assert mat.dim == reference.shape[0] == reference.shape[1]
    np.testing.assert_array_equal(mat.keys, keys)
    np.testing.assert_array_equal(mat.values, values)


def scipy_poisson(problem: PoissonProblem):
    """The operator as scipy's Kronecker sum of 1-D tridiagonal CSR matrices."""
    n = problem.n
    diagonal = np.full(n, 2.0)
    if problem.boundary.kind == "unified":
        c, d = boundary_coefficients(problem.boundary, n)
        diagonal[0] -= c
        diagonal[n - 1] -= d
    off = np.full(n - 1, -1.0)
    one_d = scipy.sparse.diags([off, diagonal, off], [-1, 0, 1], format="csr")
    return reduce(scipy.sparse.kronsum, [one_d] * problem.dimension).tocsr()


def scipy_term(op, n: int, dimension: int):
    dim = n**dimension
    if isinstance(op, ToeplitzSpec):
        coeffs = op.coeffs or {0: 0.0}
        return scipy.sparse.diags([np.full(op.n - abs(l), t) for l, t in coeffs.items()],
                                  [-l for l in coeffs], shape=(op.n, op.n), format="csr")
    if isinstance(op, ProjectorPair):
        rows, cols = np.array(op.entries, dtype=int).reshape(-1, 2).T
        return scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    perm, sign = word_permutation(op.letters, n)
    return scipy.sparse.csr_matrix((sign, (np.arange(dim), perm)), shape=(dim, dim))


def scipy_reconstruct(term_list: TermList):
    """The coefficient-weighted sum of the terms, added one CSR matrix at a time."""
    dim = term_list.total_dim
    acc = scipy.sparse.csr_matrix((dim, dim))
    for term in term_list.terms:
        mat = scipy_term(term.op, term_list.n, term_list.dimension)
        acc = acc + term.coefficient * mat
        if term.conjugate_pair:
            acc = acc + term.coefficient * mat.T.tocsr()
    return acc


PROBLEMS = {
    "1d-2": PoissonProblem(1, 2),
    "1d-12": PoissonProblem(1, 12),
    "unified-3": PoissonProblem(1, 3, UNIFIED),
    "unified-12": PoissonProblem(1, 12, UNIFIED),
    "2d-1": PoissonProblem(2, 1),
    "2d-3": PoissonProblem(2, 3),
    "2d-6": PoissonProblem(2, 6),
    "3d-1": PoissonProblem(3, 1),
    "3d-2": PoissonProblem(3, 2),
    "3d-4": PoissonProblem(3, 4),
}


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS.keys())
def test_poisson_sparse_matches_scipy_kronsum(problem):
    assert_same_entries(poisson_sparse(problem), scipy_poisson(problem))


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS.keys())
def test_reconstruct_sparse_matches_scipy_sum(problem):
    # the d-D squares hold conjugate-pair words, the unified lists projector pairs
    for terms in default_term_lists(problem):
        assert_same_entries(reconstruct_sparse(terms), scipy_reconstruct(terms))


def test_reconstruct_sparse_matches_scipy_on_other_lists():
    gram = decompose_banded_gram(ToeplitzSpec(16, {-2: 0.3, -1: -1.7, 0: 2.9, 1: 0.4, 2: -0.8}))
    assert any(isinstance(t.op, ProjectorPair) and t.op.symmetrize for t in gram.terms)
    pairs = TermList(
        (
            DecompositionTerm(0.7, TensorWord(("LX",)), conjugate_pair=True),
            DecompositionTerm(-1.3, ToeplitzSpec(8, {2: 1.5, -1: 0.5}), conjugate_pair=True),
            DecompositionTerm(2.0, ProjectorPair(((0, 3), (5, 5))), conjugate_pair=True),
            DecompositionTerm(0.1, TensorWord(("XZ",))),
        ),
        n=8, dimension=1,
    )
    for terms in (gram, pairs):
        assert_same_entries(reconstruct_sparse(terms), scipy_reconstruct(terms))


def random_entries(rng, dim: int):
    """Entries with a repeated position, explicit zeros and, from dim 3 on,
    two empty rows."""
    size = 3 * dim
    rows, cols = rng.integers(0, dim, size), rng.integers(0, dim, size)
    rows[(rows == 1) | (rows == dim - 1)] = 0
    values = rng.standard_normal(size)
    values[::4] = 0.0
    return np.append(rows, rows[1]), np.append(cols, cols[1]), np.append(values, 0.5)


@pytest.mark.parametrize("seed", range(8))
def test_product_sum_and_difference_match_scipy(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 40))
    mats = []
    for _ in range(2):
        rows, cols, values = random_entries(rng, dim)
        mats.append((SparseMatrix.from_entries(dim, rows, cols, values),
                     scipy.sparse.csr_matrix((values, (rows, cols)), shape=(dim, dim))))
    (a, sa), (b, sb) = mats
    for ours, reference in ((a @ b, sa @ sb), (a @ a, sa @ sa), (a.T, sa.T)):
        keys, values = triplets(reference)
        np.testing.assert_array_equal(ours.keys, keys)
        # repeated entries are summed before the product here, after it in scipy
        np.testing.assert_allclose(ours.values, values, rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(a.toarray(), sa.toarray())
    assert a.max_abs_difference(a) == 0.0
    # from entries that are each stored once, every sum runs in scipy's order
    ca, cb = (scipy.sparse.csr_matrix((m.values, np.divmod(m.keys, dim)), shape=(dim, dim))
              for m in (a, b))
    assert_same_entries(a @ b, ca @ cb)
    assert_same_entries(b @ a, cb @ ca)
    assert_same_entries(SparseMatrix.weighted_sum(dim, [(0.5, a), (-2.0, b), (3.0, a.T)]),
                        0.5 * ca - 2.0 * cb + 3.0 * ca.T)
    assert a.max_abs_difference(b) == abs(ca - cb).max()


@pytest.mark.parametrize("dim", [0, 1, 5])
def test_product_of_the_empty_matrix(dim):
    empty = SparseMatrix(dim, [], [])
    rows, cols, values = random_entries(np.random.default_rng(dim), max(dim, 1))
    full = SparseMatrix.from_entries(dim, rows, cols, values) if dim else empty
    for product in (empty @ empty, empty @ full, full @ empty):
        assert product.keys.size == product.values.size == 0
        np.testing.assert_array_equal(product.toarray(), np.zeros((dim, dim)))
    assert empty.max_abs_difference(empty) == 0.0


def test_empty_band_is_the_zero_matrix():
    empty = band_sparse(ToeplitzSpec(8, {}))
    assert empty.keys.size == 0
    np.testing.assert_array_equal(empty.toarray(), np.zeros((8, 8)))
    np.testing.assert_array_equal(band_sparse(ToeplitzSpec(8, {0: 0.0, 3: 0.0})).toarray(),
                                  np.zeros((8, 8)))


def test_difference_of_mismatched_sizes_raises():
    with pytest.raises(DimensionMismatch):
        SparseMatrix(4, [0], [1.0]).max_abs_difference(SparseMatrix(8, [0], [1.0]))


@pytest.mark.parametrize("problem", [PoissonProblem(2, 6), PoissonProblem(3, 4)],
                         ids=["2d-6", "3d-4"])
def test_gate_memory_at_twelve_qubits(problem):
    # each weighted sum merges its terms in chunks, so no work array holds every term's entries
    term_lists = default_term_lists(problem)
    tracemalloc.start()
    try:
        err = verify_problem_terms(problem, term_lists)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == 0.0
    assert peak < 32 * 2**20


def test_weighted_sum_merges_in_chunks():
    # 256 parts of 4096 entries on the same positions: merged all at once
    # their work arrays would take tens of MiB, in chunks a few
    dim = 4096
    perm = np.random.default_rng(3).permutation(dim)
    part = SparseMatrix.from_entries(dim, np.arange(dim), perm, np.ones(dim))
    tracemalloc.start()
    try:
        total = SparseMatrix.weighted_sum(dim, [(0.5, part)] * 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(total.keys, part.keys)
    np.testing.assert_array_equal(total.values, np.full(dim, 128.0))
    assert peak < 8 * 2**20


def with_nan_coefficient(terms: TermList, index: int) -> TermList:
    term = terms.terms[index]
    bad = DecompositionTerm(float("nan"), term.op, term.conjugate_pair)
    return dataclasses.replace(terms, terms=terms.terms[:index] + (bad,) + terms.terms[index + 1:])


@pytest.mark.parametrize("problem", [PoissonProblem(1, 3), PoissonProblem(1, 3, UNIFIED),
                                     PoissonProblem(2, 2)], ids=["1d", "unified", "2d"])
@pytest.mark.parametrize("which", [0, 1], ids=["A", "A2"])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_gate_returns_nan_for_a_nan_coefficient(problem, which, index):
    term_lists = list(default_term_lists(problem))
    term_lists[which] = with_nan_coefficient(term_lists[which], index)
    assert np.isnan(verify_problem_terms(problem, term_lists))


@pytest.mark.parametrize(
    "name, check",
    [
        ("toeplitz_to_dense", "toeplitz/embedding-top-left-block"),
        ("projector_expectation", "circuits/projector-pairs"),
        ("verify_problem_terms", "decompose/dirichlet-1d"),
    ],
)
def test_verification_check_fails_on_a_nan_at_a_later_sample(monkeypatch, name, check):
    # a NaN at the second sample, after a finite one, fails the check
    original = getattr(verification, name)
    calls = []

    def nan_on_second_call(*args):
        calls.append(None)
        value = original(*args)
        return value * np.nan if len(calls) == 2 else value

    monkeypatch.setattr(verification, name, nan_on_second_call)
    results, ok = run_verification()
    result = next(r for r in results if r.name == check)
    assert np.isnan(result.max_error) and not result.passed and not ok
    assert len(calls) > 2
