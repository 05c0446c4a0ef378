"""Variational quantum algorithms for banded-Toeplitz linear algebra.

The package solves discretized Poisson equations and general banded
Toeplitz systems / matrix-vector products on a simulated quantum device:
the operator and its square are decomposed into a banded Toeplitz part
(a sum of cyclic-shift powers on a padded register, each a QFT pair
around single-qubit phase towers) plus a handful of projector pairs and
tensor-word unitaries, and the resulting cost function is minimized over
a hardware-efficient ansatz.  Everything is verifiable against an exact
dense oracle.
"""

from .linalg import (
    MAX_DENSE_DIM,
    DimensionMismatch,
    DimensionOverflow,
    SingularMatrix,
    ZeroVector,
    basis_state,
    build_unit_circulant,
    dense_solve,
    dft_matrix,
    fidelity,
    normalize,
)
from .poisson import (
    BoundaryCondition,
    PoissonProblem,
    UnsupportedProblem,
    WrongKind,
    boundary_coefficients,
    build_poisson,
    build_poisson_1d,
    build_poisson_dd,
    poisson_sparse,
    prepare_b,
    problem_from_dict,
)
from .toeplitz import (
    NotBanded,
    ToeplitzSpec,
    band_autocorrelation,
    classical_toeplitz_matvec,
    corner_corrections,
    phase_spectrum,
    toeplitz_to_dense,
)
from .decomposition import (
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
    reconstruct_dense,
    reconstruct_sparse,
    termlist_to_jsonable,
)
from .circuits import (
    Circuit,
    Gate,
    NonUnitaryBlock,
    ShotCountZero,
    UnsupportedPattern,
    bell_pair_circuits,
    circuit_unitary,
    controlled_Ll_circuit,
    hadamard_test,
    phase_tower_circuit,
    projector_expectation,
    qft_circuit,
    run_statevector,
    sample_shots,
    state_prep_circuit,
    uniform_prep_circuit,
)
from .vqa import (
    AnsatzSpec,
    Cost,
    LengthMismatch,
    OptimizerConfig,
    TrainingTrace,
    ZeroImage,
    ansatz_circuit,
    ansatz_state,
    default_term_lists,
    dense_hamiltonian,
    make_linear_system_cost,
    make_matvec_cost,
    make_toeplitz_system_cost,
    matvec_target_state,
    optimize,
    solution_fidelity,
)
from .verification import run_verification, term_count_table

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
