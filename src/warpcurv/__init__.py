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
    ambient_curvature,
    builtin_profile,
    profile_summary,
    slice_geometry,
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
    PointGeometry,
    evaluate_geometry,
    point_geometry,
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
    normalized_lhat,
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
    garding_chain,
    jacobi_eigenvalues,
    newton_family,
    p1_ellipticity_check,
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
    "PointGeometry",
    "RadialModel",
    "ScenarioReport",
    "THEOREM_IDS",
    "WarpedProduct",
    "WarpingProfile",
    "ambient_curvature",
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
    "garding_chain",
    "height_sigma_identities",
    "hessian_comparison_check",
    "jacobi_eigenvalues",
    "lk_apply",
    "newton_family",
    "normalized_lhat",
    "omori_yau_probe",
    "p1_ellipticity_check",
    "parabolicity_integral",
    "point_geometry",
    "profile_summary",
    "slice_geometry",
    "solve_comparison",
    "structure_identities",
    "theorem_audit",
    "theta_hat_identity",
    "trace_and_norm_identities",
    "__version__",
]
