"""polycap: capacity bounds for homogeneous polynomials with nonnegative
coefficients — certified lower bounds on permanents, mixed discriminants, and
general mixed partial derivatives, plus a deterministic approximation
algorithm with a multiplicative guarantee.
"""

__version__ = "0.1.0"

from .approx import (
    ApproxResult,
    DerivativeSliceOracle,
    estimate_mixed_partial,
    guarantee_factor,
)
from .bounds import (
    BoundReport,
    contraction_capacity_check,
    entropic_inequality_check,
    rank_ladder_bound,
    SparseBoundReport,
    repeated_column_permanent,
    sparse_permanent_bound,
    univariate_linear_bound_check,
    vdw_factor,
)
from .capacity import (
    CapacityResult,
    ScalingResult,
    capacity_minimize,
    log_objective,
    sinkhorn_scale,
)
from .errors import (
    InputError,
    PolycapError,
    ResourceLimitError,
)
from .hyperbolicity import (
    RootProfile,
    half_plane_sample_check,
    real_rootedness_check,
    root_profile,
)
from .io import (
    SCHEMA,
    load_polynomial,
    polynomial_from_dict,
)
from .oracles import (
    exact_mixed_partial,
    mixed_discriminant,
    mixed_form,
    permanent_error_bound,
    permanent_ryser,
)
from .polynomials import (
    DeterminantalPolynomial,
    EvaluationOracle,
    FunctionOracle,
    ProductFormPolynomial,
    SparsePolynomial,
    derivative_reduce,
)

__all__ = [
    "ApproxResult",
    "BoundReport",
    "CapacityResult",
    "DerivativeSliceOracle",
    "DeterminantalPolynomial",
    "EvaluationOracle",
    "FunctionOracle",
    "InputError",
    "PolycapError",
    "ProductFormPolynomial",
    "ResourceLimitError",
    "RootProfile",
    "SCHEMA",
    "ScalingResult",
    "SparseBoundReport",
    "SparsePolynomial",
    "capacity_minimize",
    "contraction_capacity_check",
    "derivative_reduce",
    "entropic_inequality_check",
    "estimate_mixed_partial",
    "exact_mixed_partial",
    "guarantee_factor",
    "half_plane_sample_check",
    "load_polynomial",
    "log_objective",
    "mixed_discriminant",
    "mixed_form",
    "permanent_error_bound",
    "permanent_ryser",
    "polynomial_from_dict",
    "rank_ladder_bound",
    "real_rootedness_check",
    "repeated_column_permanent",
    "root_profile",
    "sinkhorn_scale",
    "sparse_permanent_bound",
    "univariate_linear_bound_check",
    "vdw_factor",
]
