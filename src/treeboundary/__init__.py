"""Exact boundary dynamics for free groups acting on the 2n-valent tree.

The package computes, in exact rational arithmetic wherever the mathematics
is exact: cylinder measures and pushforwards on the boundary, expectation /
deviation / covariance statistics over the group, summability diagnostics,
finite operator truncations with their identity checks, and a cyclic
cocycle evaluator.  Sums over the whole group (the cocycle, even-p
summability) are exact, from a few spheres.  A batch CLI
(``treeboundary``) exposes the whole pipeline as JSON + CSV reports.
"""

from types import ModuleType as _ModuleType

from .words import (
    BudgetError,
    DEFAULT_BUDGET,
    FreeGroup,
    IDENTITY,
    Word,
    gromov_product,
    mul,
    reduce_letters,
    word_from_str,
    word_to_str,
)
from .boundary import (
    BoundaryPoint,
    Cylinder,
    CylinderMeasure,
    VisualStructure,
    boundary_action,
    comparability_constants,
    cylinder_measure,
    depth_mass,
    preimage_cylinder,
    pushforward,
    pushforward_mass,
    pushforward_weights,
    visual_distance,
    weak_distance_to_delta,
)
from .functions import (
    GaussianRational,
    LocallyConstantFunction,
    QQ_I,
    QQ_ONE,
    QQ_ZERO,
    random_unit_function,
    translate,
)
from .deviation import (
    DeviationProfile,
    ProfileRow,
    covariance,
    deviation_sq,
    deviation_sq_pairsum,
    expectation,
    sigma_envelope,
)
from .summability import (
    SortedDecayCheck,
    SummabilityReport,
    decay_exponent_fit,
    dplus_surrogate_check,
    hausdorff_dimension,
    lp_report,
    sphere_series,
    summability_threshold,
)
from .svd import operator_norm, schatten_norm, singular_values
from .operators import (
    OPERATOR_BUDGET,
    PiIdentityReport,
    TruncatedOperator,
    Truncation,
    commutator_singular_values,
    conditional_lower_bound_check,
    fiber_diagonal,
    fiber_unit,
    homotopy_projection,
    homotopy_projection_check,
    projection_P,
    rep_crossed,
    rep_function,
    rep_group,
    verify_compression_identity,
    verify_pi_identity,
)
from .chern import (
    CocycleInput,
    CocycleValue,
    TraceOracleReport,
    cocycle_value,
    trace_identity,
    trace_oracle_dense,
    trace_oracle_report,
)
from .verify import CheckResult, VerifyContext, check_names, run_all

# every name imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
