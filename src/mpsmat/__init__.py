"""Hermitian unitary matrices with modular permutation symmetry.

An MPS matrix has one common modulus on the diagonal and another off it;
the Hermitian unitary ones of order n are classified by the modulus ratio d.
The package measures and verifies that structure, builds every explicit
family of such matrices, parametrizes Hermitian/general unitary matrices by
free parameters, and settles the real (symmetric orthogonal) case with exact
integer arithmetic: necessary conditions, design correspondence, Hadamard
bridge, exhaustive search, and equivalence testing.
"""

from .core import (
    BALANCED,
    DEFAULT_TOL,
    IMPOSSIBLE,
    MpsError,
    MpsProfile,
    NotHermitianUnitaryError,
    NotMpsError,
    check_d_bound,
    check_trace_identity,
    d_from_mp,
    is_hermitian,
    is_unitary,
    mps_profile,
    scattering_probabilities,
)
from .designs import (
    BadOrderError,
    DesignInvalidError,
    DesignParams,
    NotNormalizableError,
    SymmetricDesign,
    design_params_for,
    fourier_complex_hadamard,
    hadamard_to_design,
    identity_design,
    normalize_to_standard,
    paley_conference,
    sylvester_hadamard,
    verify_conference,
    verify_design,
    verify_hadamard,
)
from .exact import (
    EquivalenceWitness,
    IntegerMps,
    StandardForm,
    StructureReport,
    StructureViolationError,
    ThreeRowCounts,
    Transform,
    conference_block_mps,
    conference_mps,
    design_mps,
    extract_design,
    full_j_mps,
    hadamard_bridge,
    hadamard_to_mps,
    structure_check,
    three_row_counts,
    to_standard_form,
    two_by_two_mps,
    upper_interval_mps,
)
from .families import (
    FAMILY_NAMES,
    NoRealRootError,
    NotConferenceError,
    NotHadamardError,
    OutOfRangeError,
    complex_core_matrix,
    conference_block_family,
    conference_core_family,
    design_alpha_for_ratio,
    design_family,
    design_family_ratio,
    hadamard_core_family,
    n2_matrix,
    upper_interval,
)
from .parametrize import (
    DegenerateSpecError,
    HermitianUnitaryParam,
    QuadraticSpec,
    TrivialMatrixError,
    UnitaryParam,
    build_hermitian_unitary,
    build_quadratic_solution,
    build_unitary,
    decompose_hermitian_unitary,
    decompose_unitary,
    eigenbasis_from_param,
)

__version__ = "0.1.0"
