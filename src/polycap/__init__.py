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
    capacity_upper_bound_check,
    contraction_capacity_check,
    derivative_rank_monotone_check,
    entropic_inequality_check,
    rank_ladder_bound,
    repeated_column_permanent,
    sparse_permanent_bound,
    uniform_rank_bound,
    univariate_linear_bound_check,
    vdw_factor,
    vdw_lower_bound,
)
from .capacity import (
    CapacityResult,
    ScalingResult,
    capacity_minimize,
    complex_capacity_sample,
    log_objective,
    sinkhorn_scale,
)
from .errors import (
    InputError,
    NotHyperbolicError,
    PolycapError,
    ResourceLimitError,
)
from .hyperbolicity import (
    RootProfile,
    factorization_check,
    half_plane_sample_check,
    rank_via_roots,
    real_rootedness_check,
    restricted_roots,
    root_profile,
)
from .io import (
    SCHEMA,
    load_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    save_polynomial,
)
from .oracles import (
    exact_mixed_partial,
    mixed_discriminant,
    mixed_form,
    permanent_error_bound,
    permanent_ryser,
    taylor_mixed_form_coefficient,
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
    "NotHyperbolicError",
    "PolycapError",
    "ProductFormPolynomial",
    "ResourceLimitError",
    "RootProfile",
    "SCHEMA",
    "ScalingResult",
    "SparsePolynomial",
    "capacity_minimize",
    "capacity_upper_bound_check",
    "complex_capacity_sample",
    "contraction_capacity_check",
    "derivative_rank_monotone_check",
    "derivative_reduce",
    "entropic_inequality_check",
    "estimate_mixed_partial",
    "exact_mixed_partial",
    "factorization_check",
    "guarantee_factor",
    "half_plane_sample_check",
    "load_polynomial",
    "log_objective",
    "mixed_discriminant",
    "mixed_form",
    "permanent_error_bound",
    "permanent_ryser",
    "polynomial_from_dict",
    "polynomial_to_dict",
    "rank_ladder_bound",
    "rank_via_roots",
    "real_rootedness_check",
    "repeated_column_permanent",
    "restricted_roots",
    "root_profile",
    "save_polynomial",
    "sinkhorn_scale",
    "sparse_permanent_bound",
    "taylor_mixed_form_coefficient",
    "uniform_rank_bound",
    "univariate_linear_bound_check",
    "vdw_factor",
    "vdw_lower_bound",
]
