"""Discretized Poisson operators and right-hand sides.

The 1-D operator on a uniform interior grid of n = 2**N points is the
tridiagonal [-1, 2, -1] matrix.  Dirichlet conditions leave both corner
entries at 2; the mixed ("unified") conditions alpha1*u'(0) - alpha2*u(0) = 0
and beta1*u'(1) - beta2*u(1) = 0 perturb them to 2-c and 2-d with

    c = alpha1 / (alpha1 + alpha2*h),   d = beta1 / (beta1 + beta2*h),

h = 1/(n+1).  The d-dimensional Dirichlet operator is the Kronecker sum of
d one-dimensional copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .linalg import ZeroVector, check_dense, integer, normalize, real, real_array


class WrongKind(ValueError):
    """Operation requires the other boundary-condition family."""


class UnsupportedProblem(ValueError):
    """Problem shape outside the supported families."""


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # "dirichlet" | "unified"
    alpha1: float | None = None
    alpha2: float | None = None
    beta1: float | None = None
    beta2: float | None = None

    def __post_init__(self):
        if self.kind == "dirichlet":
            if any(p is not None for p in (self.alpha1, self.alpha2, self.beta1, self.beta2)):
                raise ValueError("dirichlet boundary carries no parameters")
        elif self.kind == "unified":
            params = (self.alpha1, self.alpha2, self.beta1, self.beta2)
            if any(p is None or not 0 < real(p, "each boundary parameter") < np.inf
                   for p in params):
                raise ValueError("unified boundary requires four positive finite parameters")
        else:
            raise ValueError(f"unknown boundary kind {self.kind!r}")

    @staticmethod
    def dirichlet() -> "BoundaryCondition":
        return BoundaryCondition("dirichlet")

    @staticmethod
    def unified(alpha1: float, alpha2: float, beta1: float, beta2: float) -> "BoundaryCondition":
        return BoundaryCondition("unified", alpha1, alpha2, beta1, beta2)


@dataclass
class PoissonProblem:
    """Problem instance: spatial dimension, grid resolution, boundary, rhs.

    ``rhs`` is either the string "uniform" (a flat right-hand side, whose
    normalized state is exactly H^{otimes N*d}|0>) or an explicit sample
    vector of n**d real numbers (a bool or a string entry is rejected).
    """

    dimension: int
    qubits_per_axis: int
    boundary: BoundaryCondition = field(default_factory=BoundaryCondition.dirichlet)
    rhs: str | np.ndarray = "uniform"

    def __post_init__(self):
        self.dimension = integer(self.dimension, "dimension", 1, UnsupportedProblem)
        self.qubits_per_axis = integer(
            self.qubits_per_axis, "qubits_per_axis", 1, UnsupportedProblem
        )
        if self.dimension >= 2 and self.boundary.kind != "dirichlet":
            raise UnsupportedProblem("unified boundary conditions are 1-D only")
        if not isinstance(self.rhs, str):
            self.rhs = real_array(self.rhs, "each rhs entry")
            qubits = self.rhs.size.bit_length() - 1  # by qubit count: n**d may be huge
            if qubits != self.total_qubits or self.rhs.shape != (1 << qubits,):
                raise UnsupportedProblem(
                    f"rhs shape {self.rhs.shape} does not fit the {self.total_qubits}-qubit grid"
                )
            if not np.all(np.isfinite(self.rhs)):
                raise UnsupportedProblem("rhs must be finite")
            if np.max(np.abs(self.rhs)) == 0:
                raise ZeroVector("rhs must not be all zero")
        elif self.rhs != "uniform":
            raise UnsupportedProblem(f"unknown rhs token {self.rhs!r}")

    @property
    def n(self) -> int:
        """Grid points per axis."""
        return 1 << self.qubits_per_axis

    @property
    def total_qubits(self) -> int:
        return self.qubits_per_axis * self.dimension

    @property
    def total_dim(self) -> int:
        return self.n ** self.dimension


def boundary_coefficients(bc: BoundaryCondition, n: int) -> tuple[float, float]:
    """Corner perturbations (c, d) of the unified-boundary operator."""
    if bc.kind != "unified":
        raise WrongKind("boundary_coefficients requires the unified kind")
    h = 1.0 / (n + 1)
    return _corner(bc.alpha1, bc.alpha2, h), _corner(bc.beta1, bc.beta2, h)


def _corner(p1: float, p2: float, h: float) -> float:
    """p1 / (p1 + p2*h) for positive finite p1, p2 and h <= 1.  Near the top
    of the float range both are first scaled down by the power of two that
    keeps the sum finite; that is exact, so no other input changes a bit."""
    shift = max(0, max(math.frexp(p1)[1], math.frexp(p2)[1]) - 1022)
    p1, p2 = math.ldexp(p1, -shift), math.ldexp(p2, -shift)
    return p1 / (p1 + p2 * h)


def poisson_sparse(problem: PoissonProblem) -> scipy.sparse.csr_matrix:
    """CSR operator of any supported problem: the tridiagonal [-1, 2, -1]
    band with boundary-adjusted corners, as a Kronecker sum over d axes."""
    import scipy.sparse  # here, so that importing the package does not load it

    n = problem.n
    diagonal = np.full(n, 2.0)
    if problem.boundary.kind == "unified":
        c, d = boundary_coefficients(problem.boundary, n)
        diagonal[0] -= c
        diagonal[n - 1] -= d
    off = np.full(n - 1, -1.0)
    one_d = scipy.sparse.diags([off, diagonal, off], [-1, 0, 1], format="csr")
    return reduce(scipy.sparse.kronsum, [one_d] * problem.dimension).tocsr()


def build_poisson(problem: PoissonProblem) -> np.ndarray:
    """Dense operator of any supported problem, within the dense cap."""
    check_dense(problem.total_dim, "grid size")
    return poisson_sparse(problem).toarray()


def build_poisson_1d(problem: PoissonProblem) -> np.ndarray:
    """Tridiagonal [-1, 2, -1] operator with boundary-adjusted corners."""
    if problem.dimension != 1:
        raise UnsupportedProblem("build_poisson_1d requires dimension 1")
    return build_poisson(problem)


def build_poisson_dd(problem: PoissonProblem) -> np.ndarray:
    """Kronecker sum of d one-dimensional Dirichlet operators."""
    if problem.boundary.kind != "dirichlet":
        raise UnsupportedProblem("multi-dimensional operator requires dirichlet boundary")
    return build_poisson(problem)


def prepare_b(problem: PoissonProblem) -> np.ndarray:
    """Normalized right-hand-side state over all N*d qubits."""
    if isinstance(problem.rhs, str):
        dim = problem.total_dim
        return np.full(dim, 1.0 / np.sqrt(dim))
    return normalize(problem.rhs)


def problem_from_dict(payload: dict) -> PoissonProblem:
    """Build a problem from the JSON schema used by the CLI.

    Schema: {"dimension": int, "qubits_per_axis": int,
             "boundary": {"kind": "dirichlet" | "unified", "alpha1": ..., ...},
             "rhs": "uniform" | [numbers]}
    """
    try:
        bdict = payload.get("boundary", {"kind": "dirichlet"})
        kind = bdict["kind"]
        if kind == "dirichlet":
            bc = BoundaryCondition.dirichlet()
        else:
            bc = BoundaryCondition.unified(
                bdict["alpha1"], bdict["alpha2"], bdict["beta1"], bdict["beta2"]
            )
        return PoissonProblem(
            dimension=payload["dimension"],
            qubits_per_axis=payload["qubits_per_axis"],
            boundary=bc,
            rhs=payload.get("rhs", "uniform"),
        )
    except (KeyError, TypeError) as exc:
        raise UnsupportedProblem(f"malformed problem description: {exc}") from exc

