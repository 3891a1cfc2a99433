"""Numerical audits of curvature identities on warped-product graphs.

The package evaluates the extrinsic geometry of graph hypersurfaces in
one-dimensional warped products over model fibers, checks the algebraic
and differential identities tying higher-order mean curvatures to the
height and angle functions (each identity through two independent
routes), solves the radial comparison ODEs that feed maximum-principle
arguments, and audits curvature rigidity statements hypothesis by
hypothesis.
"""

from .ambient import (
    FiberSpec,
    PROFILES,
    WarpedProduct,
    WarpingProfile,
    builtin_profile,
    profile_summary,
)
from .comparison import (
    GROWTH_FUNCTIONS,
    MODELS,
    GrowthFunction,
    RadialModel,
    builtin_growth,
    builtin_model,
    check_growth_conditions,
    hessian_comparison_check,
    omori_yau_probe,
    solve_comparison,
)
from .hypersurface import (
    DiscretizationConfig,
    GeometryGrid,
    GraphImmersion,
    evaluate_geometry,
    structure_identities,
)
from .operators import (
    IdentityResidual,
    NotApplicableError,
    calligraphic_ops,
    convergence_study,
    div_pk,
    frak_apply,
    frak_phi,
    height_sigma_identities,
    lk_apply,
    theta_hat_identity,
)
from .scenarios import (
    ScenarioReport,
    THEOREM_IDS,
    curvature_estimate_scenario,
    elliptic_point_and_signs,
    parabolicity_integral,
    theorem_audit,
)
from .symfun import (
    NewtonFamily,
    elementary_symmetric,
    jacobi_eigenvalues,
    newton_family,
    trace_and_norm_identities,
)

__version__ = "0.1.0"

__all__ = [
    "DiscretizationConfig",
    "FiberSpec",
    "GeometryGrid",
    "GraphImmersion",
    "GrowthFunction",
    "GROWTH_FUNCTIONS",
    "IdentityResidual",
    "MODELS",
    "NewtonFamily",
    "NotApplicableError",
    "PROFILES",
    "RadialModel",
    "ScenarioReport",
    "THEOREM_IDS",
    "WarpedProduct",
    "WarpingProfile",
    "builtin_growth",
    "builtin_model",
    "builtin_profile",
    "calligraphic_ops",
    "check_growth_conditions",
    "convergence_study",
    "curvature_estimate_scenario",
    "div_pk",
    "elementary_symmetric",
    "elliptic_point_and_signs",
    "evaluate_geometry",
    "frak_apply",
    "frak_phi",
    "height_sigma_identities",
    "hessian_comparison_check",
    "jacobi_eigenvalues",
    "lk_apply",
    "newton_family",
    "omori_yau_probe",
    "parabolicity_integral",
    "profile_summary",
    "solve_comparison",
    "structure_identities",
    "theorem_audit",
    "theta_hat_identity",
    "trace_and_norm_identities",
    "__version__",
]
