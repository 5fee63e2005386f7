"""Polynomial commutators p(ab) - p(ba): witness constructions over
quaternions and matrices, plus norm bounds for the complex case."""

from types import ModuleType as _ModuleType

from .matrix import (
    CC,
    HF,
    HQ,
    QQ,
    RINGS,
    GenericMatrix,
    ScalarRing,
    SingularMatrixError,
    TelescopeReport,
    telescoping_expand,
)
from .norms import (
    BoundReport,
    ConstantEstimate,
    SphereEstimate,
    check_average_bound,
    check_bottcher_wenzel,
    check_frobenius_bound,
    check_numrad_bound,
    empirical_constant,
    frobenius_norm,
    numerical_radius,
    operator_norm,
    spherical_average,
)
from .poly import (
    BracketError,
    OddFactor,
    Polynomial,
    derive_odd_factor,
    eval_poly,
    poly_commutator,
    solve_odd_equation,
)
from .quat import (
    QI,
    QJ,
    QK,
    QuatFactorization,
    QuatSolution,
    Quaternion,
    VerificationError,
    factor_into_two_commutators,
    solve_poly_commutator,
)
from .realize import (
    DegreeNotBoundedError,
    DegreeProbeResult,
    RealizationWitness,
    algebraic_degree_probe,
    algebraicity_polynomial,
    nonzero_trace_witness,
    pick_distinct_preimages,
    realize_traceless,
    realize_zero_diagonal,
    traceless_to_zero_diagonal,
    triangular_diagonalize,
)
from .serialize import (
    DecodeError,
    decode_matrix,
    decode_polynomial,
    decode_quaternion,
    decode_witness,
    dumps_canonical,
    encode_matrix,
    encode_polynomial,
    encode_quaternion,
    encode_witness,
    polynomial_from_text,
)

__version__ = "0.1.0"

# every public name bound above, submodules aside
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
