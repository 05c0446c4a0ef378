"""Explicit term lists for the Poisson operators and their squares.

Every decomposition splits a matrix into summands that quantum circuits
can estimate directly:

* a banded Toeplitz part, one bracket per shift power on the padded register,
* rank-structured projector pairs (corner/edge corrections), evaluated by
  a handful of basis-change circuits and computational-basis probabilities,
* tensor words over per-axis letters {I, L, L^-1, X~, Z~, products}, for
  the multi-dimensional operator, each word a single controlled unitary.

Letters: L is the cyclic down-shift, X~ the anti-diagonal permutation
(bit flip on every qubit), Z~ = diag(-1, 1, ..., 1, -1).  The 1-D
operator with Dirichlet corners satisfies A = 2I - L - L^{-1} + (X~ - X~Z~)/2,
which is what makes the d-dimensional Kronecker sum expressible in a
number of words independent of the grid size.  Every letter, and so every
word, is a signed permutation (W v)[i] = sign[i] * v[perm[i]];
``word_permutation`` is the one definition of the alphabet, and the dense
and sparse matrices are read off it.

Besides the matrix-level term count (``len(term_list.terms)``) the module
reports the bracket-level count (``count_terms``): the number of distinct
circuit estimations once <psi|W^T|psi> is folded onto <psi|W|psi> (equal for
a real state and a real W) and constants multiplying the identity are read
off for free.  Both tallies are asserted in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_dense, integer, power_of_two
from .toeplitz import (NotBanded, ToeplitzSpec, band_autocorrelation, band_sparse,
                       corner_corrections)

# ---------------------------------------------------------------------------
# operator descriptors


@dataclass(frozen=True)
class ProjectorPair:
    """Sum of |i><j| injections over basis-index pairs.

    ``pairs`` lists (i, j) entries; with ``symmetrize`` each off-diagonal
    (i, j) also contributes |j><i|.  Diagonal pairs (i, i) are projectors.
    """

    pairs: tuple[tuple[int, int], ...]
    symmetrize: bool = False

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """Each |i><j| once, a symmetrized pair's mirror |j><i| right after it."""
        return tuple(entry for i, j in self.pairs
                     for entry in ([(i, j), (j, i)] if self.symmetrize and i != j else [(i, j)]))


@dataclass(frozen=True)
class TensorWord:
    """One letter per axis; the realized operator is the Kronecker product."""

    letters: tuple[str, ...]

    @property
    def is_identity(self) -> bool:
        return all(let == "I" for let in self.letters)


Operator = ToeplitzSpec | ProjectorPair | TensorWord


@dataclass(frozen=True)
class DecompositionTerm:
    coefficient: float
    op: Operator
    conjugate_pair: bool = False  # evaluates as coeff*(W + W^T)

    def __post_init__(self):
        if self.coefficient == 0:
            raise ValueError("decomposition terms must carry a nonzero coefficient")


@dataclass
class TermList:
    terms: tuple[DecompositionTerm, ...]
    n: int  # per-axis size
    dimension: int
    bra_equals_ket: bool = field(default=True, kw_only=True)

    @property
    def total_dim(self) -> int:
        return self.n ** self.dimension


# ---------------------------------------------------------------------------
# letter alphabet

# Composite letters as left-to-right products of the base alphabet.
_LETTER_FACTORS: dict[str, tuple[str, ...]] = {
    "I": ("I",),
    "L": ("L",),
    "Linv": ("Linv",),
    "L2": ("L", "L"),
    "Linv2": ("Linv", "Linv"),
    "X": ("X",),
    "Z": ("Z",),
    "Z2": ("Z", "Z"),
    "XZ": ("X", "Z"),
    "LX": ("L", "X"),
    "XL": ("X", "L"),
    "LinvX": ("Linv", "X"),
    "XLinv": ("X", "Linv"),
    "LXZ": ("L", "X", "Z"),
    "XZL": ("X", "Z", "L"),
    "LinvXZ": ("Linv", "X", "Z"),
    "XZLinv": ("X", "Z", "Linv"),
}


def word_permutation(letters: tuple[str, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The word as a signed permutation (perm, sign) with
    (W v)[i] = sign[i] * v[perm[i]]; axes in ``np.kron`` order, first letter
    most significant.  Nothing is kept: a cost builds its own words."""
    idx, ones = np.arange(n), np.ones(n)
    base = {
        "I": (idx, ones),
        "L": (np.roll(idx, 1), ones),
        "Linv": (np.roll(idx, -1), ones),
        "X": (idx[::-1], ones),
        "Z": (idx, np.where((idx == 0) | (idx == n - 1), -1.0, 1.0)),
    }
    perm, sign = np.zeros(1, dtype=int), np.ones(1)
    for name in letters:
        if name not in _LETTER_FACTORS:
            raise ValueError(f"unknown letter {name!r}")
        p, s = idx, ones
        for factor in _LETTER_FACTORS[name]:  # (M1 M2 v)[i] = s1[i] s2[p1[i]] v[p2[p1[i]]]
            q, t = base[factor]
            p, s = q[p], s * t[p]
        perm, sign = (perm[:, None] * n + p).ravel(), np.outer(sign, s).ravel()
    return perm, sign


def dense_letter(name: str, n: int) -> np.ndarray:
    """Dense realization of a per-axis letter."""
    return word_to_dense(TensorWord((name,)), n)


def word_to_dense(word: TensorWord, n: int) -> np.ndarray:
    """Dense realization of a word, through the capped ``reconstruct_dense``."""
    terms = TermList((DecompositionTerm(1.0, word),), n, len(word.letters))
    return reconstruct_dense(terms)


# ---------------------------------------------------------------------------
# decompositions


def _word(d: int, placements: dict[int, str]) -> TensorWord:
    letters = ["I"] * d
    for site, letter in placements.items():
        letters[site] = letter
    return TensorWord(tuple(letters))


def _dirichlet_band(n: int) -> ToeplitzSpec:
    return ToeplitzSpec(n, {-1: -1.0, 0: 2.0, 1: -1.0})


def _squared_band(n: int) -> ToeplitzSpec:
    return ToeplitzSpec(n, {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0})


def decompose_dirichlet_1d(n: int) -> tuple[TermList, TermList]:
    """1-D Dirichlet operator and its square.

    The operator is a single tridiagonal band [-1, 2, -1].  Its square is
    the band [1, -4, 6, -4, 1] minus the projector pair onto the first
    and last basis states (both corner diagonal entries drop from 6 to 5).
    """
    power_of_two(n, "n", 4)
    a_terms = TermList(
        (DecompositionTerm(1.0, _dirichlet_band(n)),),
        n=n, dimension=1, bra_equals_ket=False,
    )
    m1 = ProjectorPair(((0, 0), (n - 1, n - 1)))
    a2_terms = TermList(
        (
            DecompositionTerm(1.0, _squared_band(n)),
            DecompositionTerm(-1.0, m1),
        ),
        n=n, dimension=1,
    )
    return a_terms, a2_terms


def decompose_unified_1d(n: int, c: float, d: float) -> tuple[TermList, TermList]:
    """1-D operator with corner perturbations 2-c, 2-d, and its square.

    The square keeps the Dirichlet band; the corners contribute diagonal
    projectors weighted -(4c+1-c^2) and -(4d+1-d^2) plus symmetrized
    edge pairs |0><1|+|1><0| and |n-1><n-2|+|n-2><n-1| weighted c and d.
    """
    power_of_two(n, "n", 4)
    if not (0 <= c <= 1 and 0 <= d <= 1):
        raise ValueError("corner coefficients must lie in [0, 1]")

    def term(coeff, op):
        return (DecompositionTerm(coeff, op),) if coeff != 0 else ()

    m2 = ProjectorPair(((0, 0),))
    m3 = ProjectorPair(((n - 1, n - 1),))
    a_terms = TermList(
        (DecompositionTerm(1.0, _dirichlet_band(n)),) + term(-c, m2) + term(-d, m3),
        n=n, dimension=1, bra_equals_ket=False,
    )
    m4 = ProjectorPair(((0, 1),), symmetrize=True)
    m5 = ProjectorPair(((n - 1, n - 2),), symmetrize=True)
    a2_terms = TermList(
        (DecompositionTerm(1.0, _squared_band(n)),)
        + term(-(4 * c + 1 - c * c), m2)
        + term(-(4 * d + 1 - d * d), m3)
        + term(c, m4)
        + term(d, m5),
        n=n, dimension=1,
    )
    return a_terms, a2_terms


# Non-identity letters of the 1-D operator A = 2I + sum(weight * letter):
_SITE_LETTERS: tuple[tuple[float, str], ...] = (
    (-1.0, "L"),
    (-1.0, "Linv"),
    (0.5, "X"),
    (-0.5, "XZ"),
)

# Same-site expansion of A^2 - (25/4) I: four transpose-folded words plus
# eight self-paired ones.  The Z2 word is retained literally (it equals the
# identity; its 1/4 weight is exactly what the 25/4 constant leaves over).
_SAME_SITE_PAIRED: tuple[tuple[float, str], ...] = (
    (-4.0, "L"),
    (1.0, "L2"),
    (-0.5, "LX"),
    (-0.5, "LinvX"),
)
_SAME_SITE_SINGLE: tuple[tuple[float, str], ...] = (
    (2.0, "X"),
    (-0.5, "Z"),
    (0.25, "Z2"),
    (-2.0, "XZ"),
    (0.5, "LXZ"),
    (0.5, "XZLinv"),
    (0.5, "LinvXZ"),
    (0.5, "XZL"),
)


def decompose_dirichlet_dd(dimension: int, n: int) -> TermList:
    """d-dimensional Dirichlet operator as 2d*I plus 4 letters per axis."""
    integer(dimension, "dimension", 1)
    power_of_two(n, "n", 2)
    terms = [DecompositionTerm(2.0 * dimension, _word(dimension, {}))]
    for site in range(dimension):
        for weight, letter in _SITE_LETTERS:
            terms.append(DecompositionTerm(weight, _word(dimension, {site: letter})))
    return TermList(tuple(terms), n=n, dimension=dimension, bra_equals_ket=False)


def decompose_dirichlet_dd_squared(dimension: int, n: int) -> TermList:
    """Square of the d-dimensional operator: 12 brackets per axis plus
    24 per axis pair.

    Cross terms place one non-identity letter on each site of a pair
    (16 combinations) or one letter on a single site of the pair with the
    partner's identity weight 2 (8 combinations); same-site terms are the
    twelve-word expansion of the 1-D square with shift-containing words
    folded onto their transposes.
    """
    integer(dimension, "dimension", 1)
    power_of_two(n, "n", 2)
    terms = [
        DecompositionTerm(4.0 * dimension**2 + 2.25 * dimension, _word(dimension, {}))
    ]
    for s1 in range(dimension):
        for s2 in range(s1 + 1, dimension):
            for w1, l1 in _SITE_LETTERS:
                for w2, l2 in _SITE_LETTERS:
                    terms.append(
                        DecompositionTerm(2.0 * w1 * w2, _word(dimension, {s1: l1, s2: l2}))
                    )
            for w, letter in _SITE_LETTERS:
                terms.append(DecompositionTerm(4.0 * w, _word(dimension, {s1: letter})))
                terms.append(DecompositionTerm(4.0 * w, _word(dimension, {s2: letter})))
    for site in range(dimension):
        for w, letter in _SAME_SITE_PAIRED:
            terms.append(
                DecompositionTerm(w, _word(dimension, {site: letter}), conjugate_pair=True)
            )
        for w, letter in _SAME_SITE_SINGLE:
            terms.append(DecompositionTerm(w, _word(dimension, {site: letter})))
    return TermList(tuple(terms), n=n, dimension=dimension)


def decompose_banded_gram(spec: ToeplitzSpec) -> TermList:
    """T^T T of a banded Toeplitz matrix: autocorrelation band minus corner
    projector pairs, one symmetrized pair per mirrored off-diagonal entry."""
    if 2 * spec.band >= spec.n:
        raise NotBanded(f"squared band 2K={2*spec.band} no longer fits size {spec.n}")
    terms: list[DecompositionTerm] = [DecompositionTerm(1.0, band_autocorrelation(spec))]
    for (i, j), value in sorted(corner_corrections(spec).items()):
        if i <= j:
            terms.append(DecompositionTerm(-value, ProjectorPair(((i, j),), symmetrize=i < j)))
    return TermList(tuple(terms), n=spec.n, dimension=1)


# ---------------------------------------------------------------------------
# reconstruction and counting


def _op_sparse(op: Operator, n: int, dimension: int) -> scipy.sparse.csr_matrix:
    import scipy.sparse  # here, so that importing the package does not load it

    if isinstance(op, ToeplitzSpec):
        return band_sparse(op)
    if isinstance(op, ProjectorPair):
        rows, cols = np.array(op.entries, dtype=int).reshape(-1, 2).T
        dim = n**dimension
        return scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(dim, dim))
    if isinstance(op, TensorWord):
        perm, sign = word_permutation(op.letters, n)
        return scipy.sparse.csr_matrix(
            (sign, (np.arange(perm.size), perm)), shape=(perm.size, perm.size), dtype=float
        )
    raise TypeError(f"unknown operator descriptor {type(op).__name__}")


def reconstruct_sparse(term_list: TermList) -> scipy.sparse.csr_matrix:
    """Coefficient-weighted sparse sum of all terms (the verification route)."""
    import scipy.sparse  # here, so that importing the package does not load it

    dim = term_list.total_dim
    acc = scipy.sparse.csr_matrix((dim, dim))
    for term in term_list.terms:
        mat = _op_sparse(term.op, term_list.n, term_list.dimension)
        acc = acc + term.coefficient * mat
        if term.conjugate_pair:
            acc = acc + term.coefficient * mat.T.tocsr()
    return acc


def reconstruct_dense(term_list: TermList) -> np.ndarray:
    """``reconstruct_sparse`` as a dense array, within the dense cap."""
    check_dense(term_list.total_dim, "reconstruction dimension")
    return reconstruct_sparse(term_list).toarray()


def brackets(op: ToeplitzSpec | TensorWord, same: bool) -> tuple[dict, float]:
    """The brackets a band or a word costs, as ({key: weight}, free constant):
    its value is sum(weight * bracket(key)) + constant.  A band has one
    bracket per offset l, key l; against identical states (``same``) opposite
    offsets share one, <psi|L^-l|psi> = <psi|L^l|psi> for a real state, and
    the zero offset is free.  A word has one bracket, key its letters; against
    identical states the all-identity word is the free constant 1."""
    if isinstance(op, TensorWord):
        return ({}, 1.0) if same and op.is_identity else ({op.letters: 1.0}, 0.0)
    c = op.coeffs
    if not same:
        return dict(c), 0.0
    return ({p: c.get(p, 0.0) + c.get(-p, 0.0) for p in sorted({abs(l) for l in c} - {0})},
            c.get(0, 0.0))


def count_terms(term_list: TermList) -> int:
    """Number of distinct bracket estimations the list implies: the brackets
    of each band and word by the rule ``brackets`` states, with the list's
    ``bra_equals_ket`` as ``same``, plus one per projector pair.
    """
    return sum(1 if isinstance(term.op, ProjectorPair)
               else len(brackets(term.op, term_list.bra_equals_ket)[0])
               for term in term_list.terms)


# ---------------------------------------------------------------------------
# serialization (CLI verify reports)


def _op_to_jsonable(op: Operator) -> dict:
    if isinstance(op, ToeplitzSpec):
        return {
            "kind": "toeplitz-band",
            "n": op.n,
            "coeffs": {str(l): [t, 0.0] for l, t in sorted(op.coeffs.items())},
        }
    if isinstance(op, ProjectorPair):
        return {
            "kind": "projector-pair",
            "pairs": [list(p) for p in op.pairs],
            "symmetrize": op.symmetrize,
        }
    if isinstance(op, TensorWord):
        return {"kind": "tensor-word", "letters": list(op.letters)}
    raise TypeError(f"unknown operator descriptor {type(op).__name__}")


def termlist_to_jsonable(term_list: TermList) -> list[dict]:
    out = []
    for term in term_list.terms:
        entry = {"coeff": [float(term.coefficient), 0.0], "op": _op_to_jsonable(term.op)}
        if term.conjugate_pair:
            entry["conjugate_pair"] = True
        out.append(entry)
    return out
