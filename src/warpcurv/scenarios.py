"""Audit runners for curvature rigidity statements on discretized graphs.

Each runner assembles named hypothesis checks and conclusion checks into a
:class:`ScenarioReport`.  The verdict discipline is strict: a report may
only claim ``CONCLUSION-VIOLATED`` when every hypothesis check passed, so
that a red verdict always signals an internal inconsistency (a bug in the
geometry pipeline or in the statement being audited) rather than a test
case that simply wandered outside the theorem's assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators
from ._grid import min_or_nan
from .ambient import WarpedProduct, profile_summary
from .comparison import RadialModel
from .hypersurface import (
    DiscretizationConfig,
    GeometryGrid,
    GraphImmersion,
    evaluate_geometry,
    require_audited_node,
    sectional_bound_report,
)

VERDICT_CONSISTENT = "consistent"
VERDICT_HYPOTHESIS = "hypothesis-violated"
VERDICT_CONCLUSION = "CONCLUSION-VIOLATED"

@dataclass
class CheckResult:
    """One named boolean with the signed margin that decided it."""

    name: str
    passed: bool
    margin: float
    note: str = ""


@dataclass
class ScenarioReport:
    scenario_id: str
    hypothesis_checks: list = field(default_factory=list)
    conclusion_checks: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    verdict: str = ""

    @property
    def hypotheses_pass(self) -> bool:
        return all(c.passed for c in self.hypothesis_checks)

    @property
    def conclusions_pass(self) -> bool:
        return all(c.passed for c in self.conclusion_checks)

    def finalize(self) -> "ScenarioReport":
        if not self.hypotheses_pass:
            self.verdict = VERDICT_HYPOTHESIS
        elif not self.conclusions_pass:
            self.verdict = VERDICT_CONCLUSION
        else:
            self.verdict = VERDICT_CONSISTENT
        return self


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _interior(geom: GeometryGrid, values: np.ndarray) -> np.ndarray:
    return values[geom.interior]


def _constancy_spread(values: np.ndarray) -> float:
    """Relative max-min spread of a field, guarded against zero mean."""
    lo, hi = float(np.min(values)), float(np.max(values))
    scale = max(abs(float(np.mean(values))), 1e-300)
    return (hi - lo) / scale


def find_elliptic_point(geom: GeometryGrid,
                        both_orientations: bool = True) -> dict:
    """Search the interior for a node whose shape operator is definite.

    Returns the best margin over the grid: for the given normal the margin
    is the largest smallest-principal-curvature, and (optionally) for the
    flipped normal the largest value of minus the top principal curvature.
    A point counts as found only when the margin clears 1e-10, so that a
    principal curvature sitting at rounding level does not flip the verdict.
    """
    mask = geom.interior
    kappas = geom.kappas[mask]            # (m, n), ascending eigenvalues
    idx_grid = np.argwhere(mask)

    best_plus = int(np.argmax(kappas[:, 0]))
    margin_plus = float(kappas[best_plus, 0])
    margin, orient, best = margin_plus, 1, best_plus
    if both_orientations:
        best_minus = int(np.argmax(-kappas[:, -1]))
        margin_minus = float(-kappas[best_minus, -1])
        if margin_minus > margin_plus:
            margin, orient, best = margin_minus, -1, best_minus
    return {
        "found": margin > 1e-10,
        "margin": margin,
        "orientation": orient,
        "index": tuple(int(i) for i in idx_grid[best]),
        "principal_curvatures": [float(v) for v in geom.kappas[tuple(idx_grid[best])]],
    }


def _audited_geometry(imm: GraphImmersion, W: WarpedProduct,
                      cfg: DiscretizationConfig, positive_mean: bool):
    """The geometry a runner audits, and whether its normal was flipped.

    Refuses an immersion built over another warped product than ``W`` and
    a grid whose audit margin covers every node; ``cfg=None`` means the
    default discretization.  With ``positive_mean`` the geometry is
    re-evaluated with the normal flipped if that makes H_1 > 0: the
    rigidity statements normalize the orientation that way, and auditing
    in that gauge makes the verdict independent of which normal the
    caller handed in.
    """
    if W is not imm.W:
        raise ValueError("ambient mismatch: the immersion was built over a "
                         "different warped product")
    cfg = cfg or DiscretizationConfig()
    require_audited_node(imm, cfg)
    geom = evaluate_geometry(imm, cfg)
    if positive_mean and float(np.max(_interior(geom, geom.H[..., 1]))) < 0.0:
        return evaluate_geometry(imm.flipped(), cfg), True
    return geom, False


def _theta_branch(theta_vals: np.ndarray, tol: float) -> tuple:
    """(sign-constant?, branch label, margin).  Margin is the distance from
    the offending side to zero, positive when one sign covers the grid."""
    lo, hi = float(np.min(theta_vals)), float(np.max(theta_vals))
    if hi <= tol:
        return True, "nonpositive", -hi
    if lo >= -tol:
        return True, "nonnegative", lo
    return False, "sign-changing", -min(hi, -lo)


def _slab(geom: GeometryGrid) -> tuple:
    return float(np.min(geom.u)), float(np.max(geom.u))


# ---------------------------------------------------------------------------
# curvature estimates
# ---------------------------------------------------------------------------

def curvature_estimate_scenario(imm: GraphImmersion, W: WarpedProduct,
                                order: int, cfg: DiscretizationConfig = None,
                                tol: float = 1e-8) -> ScenarioReport:
    """sup of the order-th curvature against inf of the slice speed.

    order 1 bounds sup |H_1|, order 2 bounds sup H_2^{1/2} (needs H_2 > 0),
    order k >= 3 bounds sup H_k^{1/k} (needs an elliptic point and H_k > 0);
    in every case the bound asserted is inf over the hypersurface of the
    warping speed evaluated at the height function.
    """
    geom, _ = _audited_geometry(imm, W, cfg, positive_mean=False)
    n = geom.n
    if not 1 <= order <= n:
        raise ValueError(f"curvature order {order} outside [1, {n}]")

    report = ScenarioReport(scenario_id=f"curvature-estimate-order-{order}")
    notes = []

    compact = bool(all(imm.periodic))
    report.hypothesis_checks.append(CheckResult(
        "compact-without-boundary", compact, 1.0 if compact else -1.0,
        "every fiber axis is periodic" if compact
        else "non-periodic axes leave a boundary; the estimate is stated "
             "for closed hypersurfaces"))

    elliptic = find_elliptic_point(geom)
    sign = 1
    if order >= 2:
        h2 = _interior(geom, geom.H[..., 2])
        report.hypothesis_checks.append(CheckResult(
            "second-order-curvature-positive", float(np.min(h2)) > 0.0,
            float(np.min(h2)),
            "min H_2 over the interior; orientation-independent"))
    if order >= 3:
        report.hypothesis_checks.append(CheckResult(
            "elliptic-point-exists", elliptic["found"], elliptic["margin"],
            f"best definite node at index {elliptic['index']} for "
            f"orientation {elliptic['orientation']:+d}"))
        sign = elliptic["orientation"] ** order
        hk = sign * _interior(geom, geom.H[..., order])
        report.hypothesis_checks.append(CheckResult(
            "top-order-curvature-positive", float(np.min(hk)) > 0.0,
            float(np.min(hk)),
            "min H_k in the orientation that makes the definite node "
            "elliptic"))

    hcal_h = _interior(geom, geom.hcal)
    inf_speed = float(np.min(hcal_h))
    sup_curv = math.nan
    if order == 1:
        sup_curv = float(np.max(np.abs(_interior(geom, geom.H[..., 1]))))
    else:
        hk = sign * _interior(geom, geom.H[..., order])
        if float(np.min(hk)) > 0.0:
            sup_curv = float(np.max(hk)) ** (1.0 / order)
        else:
            notes.append("curvature supremum skipped: the order-{} field is "
                         "not positive, so its {}-th root is undefined"
                         .format(order, order))

    if math.isfinite(sup_curv):
        report.conclusion_checks.append(CheckResult(
            "curvature-supremum-estimate", sup_curv >= inf_speed - tol,
            sup_curv - inf_speed,
            "sup of the order-{} curvature vs inf of the warping speed "
            "along the graph".format(order)))
        report.residuals["sup_curvature"] = sup_curv
    report.residuals["inf_height_speed"] = inf_speed

    report.data = {
        "order": order,
        "slab": list(_slab(geom)),
        "elliptic_point": elliptic,
        "notes": notes,
    }
    return report.finalize()


# ---------------------------------------------------------------------------
# sign dichotomy
# ---------------------------------------------------------------------------

def elliptic_point_and_signs(imm: GraphImmersion,
                             cfg: DiscretizationConfig = None,
                             tol: float = 1e-8) -> ScenarioReport:
    """Definite-node search plus the angle/speed sign dichotomy.

    Audits the implication: with the orientation normalized so the mean
    curvature is positive, a sign-constant angle function, nondecreasing
    warping speed and a maximum principle (here supplied by compactness)
    force the warping speed along the graph to share the sign opposite
    the angle function.
    """
    geom, flipped = _audited_geometry(imm, imm.W, cfg, positive_mean=True)
    report = ScenarioReport(scenario_id="elliptic-point-and-signs")

    elliptic = find_elliptic_point(geom)
    h1 = _interior(geom, geom.H[..., 1])
    theta = _interior(geom, geom.theta)
    hcal_h = _interior(geom, geom.hcal)
    dhcal_h = _interior(geom, geom.dhcal)

    compact = bool(all(imm.periodic))
    report.hypothesis_checks.append(CheckResult(
        "compact-without-boundary", compact, 1.0 if compact else -1.0,
        "compactness supplies the maximum principle the dichotomy needs"))

    h1_min = float(np.min(h1))
    report.hypothesis_checks.append(CheckResult(
        "mean-curvature-positive", h1_min > tol, h1_min,
        "after orientation normalization" + (" (normal flipped)" if flipped
                                             else "")))

    dh_min = float(np.min(dhcal_h))
    report.hypothesis_checks.append(CheckResult(
        "warping-speed-nondecreasing", dh_min >= -tol, dh_min,
        "min of the warping-speed derivative along the realized heights"))

    sign_ok, branch, theta_margin = _theta_branch(theta, tol)
    report.hypothesis_checks.append(CheckResult(
        "angle-sign-constant", sign_ok, theta_margin,
        f"angle function is {branch}"))

    if branch == "nonpositive":
        margin = float(np.min(hcal_h))
        report.conclusion_checks.append(CheckResult(
            "height-speed-nonnegative", margin >= -tol, margin,
            "angle <= 0 forces the warping speed along the graph >= 0"))
    elif branch == "nonnegative":
        margin = -float(np.max(hcal_h))
        report.conclusion_checks.append(CheckResult(
            "height-speed-nonpositive", margin >= -tol, margin,
            "angle >= 0 forces the warping speed along the graph <= 0"))

    report.residuals["min_mean_curvature"] = h1_min
    report.residuals["min_speed_derivative"] = dh_min
    report.data = {
        "elliptic_point": elliptic,
        "angle_branch": branch,
        "angle_range": [float(np.min(theta)), float(np.max(theta))],
        "height_speed_range": [float(np.min(hcal_h)), float(np.max(hcal_h))],
        "mean_curvature_range": [h1_min, float(np.max(h1))],
        "orientation_flipped": flipped,
        "slab": list(_slab(geom)),
    }
    return report.finalize()


# ---------------------------------------------------------------------------
# theorem audits
# ---------------------------------------------------------------------------

# One row per statement.  ``k`` is its lowest curvature order, the only one
# when ``fixed``.  ``definite`` asks H_2 > 0 at k = 2 and an elliptic point
# at k >= 3.  ``monotone`` is the hypothesis on the warping-speed
# derivative, ``speed`` the one on the warping speed along the graph, and
# ``fiber`` compares the fiber curvature with alpha: "dominates" (kappa >=
# alpha, admitting the umbilical alternative at equality) or "strict".
_AUDITS = {
    "compact-constant-h2": dict(
        kind="compact", k=2, fixed=True, definite=True,
        monotone="nonnegative", speed=None, fiber=None),
    "complete-constant-h2": dict(
        kind="complete", k=2, fixed=True, definite=True,
        monotone="ae-positive", speed=None, fiber=None),
    "compact-constant-hk": dict(
        kind="compact", k=3, fixed=False, definite=True,
        monotone="nonnegative", speed=None, fiber=None),
    "complete-constant-hk": dict(
        kind="complete", k=3, fixed=False, definite=True,
        monotone="ae-positive", speed=None, fiber=None),
    "compact-constant-hk-fiber-curvature": dict(
        kind="compact", k=2, fixed=False, definite=False,
        monotone=None, speed="nonvanishing", fiber="dominates"),
    "complete-parabolic-constant-hk": dict(
        kind="parabolic", k=2, fixed=False, definite=True,
        monotone=None, speed="sign-constant", fiber="strict"),
}

THEOREM_IDS = tuple(_AUDITS)


def audit_order(theorem_id: str, n: int, k=None) -> int:
    """The curvature order audited for ``theorem_id`` in dimension ``n``.

    ``k=None`` selects the statement's own order (or its lowest one);
    raises ValueError when ``k`` does not fit the statement.
    """
    k_min = _AUDITS[theorem_id]["k"]
    if _AUDITS[theorem_id]["fixed"] and k not in (None, k_min):
        raise ValueError(f"this audit is specific to order {k_min}, got k={k}")
    k = k_min if k is None else k
    if not k_min <= k <= n:
        raise ValueError(f"curvature order k={k} outside [{k_min}, {n}]")
    return k


def theorem_audit(imm: GraphImmersion, W: WarpedProduct, theorem_id: str,
                  k: int = None, cfg: DiscretizationConfig = None,
                  tol: float = 1e-8) -> ScenarioReport:
    """Hypothesis/conclusion audit of one rigidity statement.

    Checks every hypothesis of the named statement on the realized grid
    (compactness, constancy and sign of the chosen curvature, angle-sign
    constancy, warping-speed monotonicity or a fiber-curvature bound,
    slab containment, elliptic point where required), then evaluates the
    slice conclusion and the algebraic proof steps that the argument
    rests on.  Passing a flipped normal never changes the verdict: the
    audit renormalizes so the mean curvature is positive.  H_k counts as
    constant, and the graph as a slice, within 1e-6 relative.
    """
    if theorem_id not in _AUDITS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one "
                         f"of {', '.join(THEOREM_IDS)}")
    spec = _AUDITS[theorem_id]
    constancy_rtol = slice_rtol = 1e-6
    input_orientation = imm.orientation
    geom, flipped = _audited_geometry(imm, W, cfg, positive_mean=True)
    imm, cfg = geom.imm, geom.cfg
    n = geom.n
    k = audit_order(theorem_id, n, k)

    report = ScenarioReport(scenario_id=theorem_id)
    notes = []
    mask = geom.interior

    # -- topology / completeness ------------------------------------------
    compact = bool(all(imm.periodic))
    if spec["kind"] == "compact":
        report.hypothesis_checks.append(CheckResult(
            "compact-without-boundary", compact, 1.0 if compact else -1.0,
            "all fiber axes periodic" if compact else
            "a non-periodic axis leaves a boundary"))
    else:
        report.hypothesis_checks.append(CheckResult(
            "complete-without-boundary", compact, 1.0 if compact else -1.0,
            "closed grid: completeness, properness and the maximum "
            "principle hold by compactness" if compact else
            "bounded non-periodic chart cannot certify completeness"))

    # -- curvature constancy and sign --------------------------------------
    hk_vals = _interior(geom, geom.H[..., k])
    spread = _constancy_spread(hk_vals)
    report.hypothesis_checks.append(CheckResult(
        "order-curvature-constant", spread <= constancy_rtol,
        constancy_rtol - spread,
        f"relative spread of H_{k} is {spread:.3e}"))

    if spec["definite"] and k == 2:
        report.hypothesis_checks.append(CheckResult(
            "order-curvature-positive", float(np.min(hk_vals)) > 0.0,
            float(np.min(hk_vals)), f"min H_{k} over the interior"))

    if spec["definite"] and k >= 3:
        elliptic = find_elliptic_point(geom, both_orientations=False)
        report.hypothesis_checks.append(CheckResult(
            "elliptic-point-exists", elliptic["found"], elliptic["margin"],
            f"best definite node at index {elliptic['index']} in the "
            "positive-mean-curvature orientation"))
    else:
        elliptic = find_elliptic_point(geom)

    # -- angle sign ---------------------------------------------------------
    theta = _interior(geom, geom.theta)
    sign_ok, branch, theta_margin = _theta_branch(theta, tol)
    report.hypothesis_checks.append(CheckResult(
        "angle-sign-constant", sign_ok, theta_margin,
        f"angle function is {branch}"))

    # -- profile conditions -------------------------------------------------
    dh_vals = _interior(geom, geom.dhcal)
    if spec["monotone"] == "nonnegative":
        dh_min = float(np.min(dh_vals))
        report.hypothesis_checks.append(CheckResult(
            "warping-speed-nondecreasing", dh_min >= -tol, dh_min,
            "min warping-speed derivative along realized heights"))
    elif spec["monotone"] == "ae-positive":
        dh_min = float(np.min(dh_vals))
        frac = float(np.mean(dh_vals > 1e-8))
        report.hypothesis_checks.append(CheckResult(
            "warping-speed-increasing-ae", dh_min >= -tol and frac >= 0.99,
            min(dh_min + tol, frac - 0.99),
            f"nonnegative everywhere, strictly positive on "
            f"{100 * frac:.1f}% of samples"))

    summary = profile_summary(imm.W)
    alpha = float(summary["alpha"])
    kappa = imm.W.fiber.kappa
    if spec["fiber"] == "dominates":
        report.hypothesis_checks.append(CheckResult(
            "fiber-curvature-dominates", kappa - alpha >= -tol, kappa - alpha,
            "fiber sectional curvature vs the profile functional "
            "sup(rho'^2 - rho'' rho)"))
    elif spec["fiber"] == "strict":
        report.hypothesis_checks.append(CheckResult(
            "fiber-curvature-dominates-strictly", kappa - alpha > tol,
            kappa - alpha, "strict inequality excludes the umbilical "
                           "alternative"))

    hcal_h = _interior(geom, geom.hcal)
    if spec["speed"] == "nonvanishing":
        lo, hi = float(np.min(hcal_h)), float(np.max(hcal_h))
        nonvanish = lo > tol or hi < -tol
        report.hypothesis_checks.append(CheckResult(
            "height-speed-nonvanishing", nonvanish,
            lo if lo > tol else -hi,
            "warping speed along the graph is bounded away from zero"))
    elif spec["speed"] == "sign-constant":
        h_ok, h_branch, h_margin = _theta_branch(hcal_h, tol)
        report.hypothesis_checks.append(CheckResult(
            "height-speed-sign-constant", h_ok, h_margin,
            f"warping speed along the graph is {h_branch}"))

    if spec["kind"] == "parabolic":
        report.hypothesis_checks.append(CheckResult(
            "parabolic-operator", compact, 1.0 if compact else -1.0,
            "a closed grid is parabolic for every divergence-form "
            "operator" if compact else
            "parabolicity is not certifiable on a bounded chart"))

    # -- slab ---------------------------------------------------------------
    lo_u, hi_u = _slab(geom)
    t_min, t_max = imm.W.profile.t_min, imm.W.profile.t_max
    slab_margin = min(lo_u - t_min, t_max - hi_u)
    report.hypothesis_checks.append(CheckResult(
        "slab-containment", slab_margin > 0.0, slab_margin,
        f"heights realized in [{lo_u:.6g}, {hi_u:.6g}] inside "
        f"({t_min:.6g}, {t_max:.6g})"))

    # -- realized constants for the completeness machinery ------------------
    h1_vals = _interior(geom, geom.H[..., 1])
    sup_h1 = float(np.max(np.abs(h1_vals)))
    norm_a_sq = float(np.max(
        (n ** 2 * geom.H[..., 1] ** 2 - n * (n - 1) * geom.H[..., 2])[mask]))
    realized = {"sup_abs_mean_curvature": sup_h1,
                "sup_shape_norm_sq": norm_a_sq}
    if spec["kind"] in ("complete", "parabolic"):
        sect = sectional_bound_report(geom)
        realized["sectional_lower_bound"] = sect["sectional_min"]
        realized["ambient_sectional_min"] = sect["ambient_min"]
        notes.append("curvature bounds realized on the grid stand in for "
                     "the growth conditions a non-compact setting would "
                     "need")

    # -- conclusion: slice --------------------------------------------------
    height_spread = hi_u - lo_u
    slice_tol = slice_rtol * (t_max - t_min)
    is_slice = height_spread <= slice_tol
    if spec["fiber"] == "dominates" and not is_slice \
            and abs(kappa - alpha) <= tol:
        kap_range = geom.kappas[mask]
        umb = float(np.max(kap_range[:, -1] - kap_range[:, 0]))
        umb_ok = umb <= 1e-6 * max(1.0, sup_h1)
        report.conclusion_checks.append(CheckResult(
            "slice-or-umbilical-conclusion", umb_ok,
            1e-6 * max(1.0, sup_h1) - umb,
            "not a slice; at curvature equality the statement admits a "
            "totally umbilical alternative"))
    else:
        report.conclusion_checks.append(CheckResult(
            "slice-conclusion", is_slice, slice_tol - height_spread,
            f"height spread {height_spread:.3e} vs tolerance "
            f"{slice_tol:.3e}"))

    # -- conclusion: proof-line audits --------------------------------------
    cal = operators.calligraphic_ops(imm, k, cfg, geom=geom)
    report.residuals["sigma-combination-residual"] = \
        cal["sigma_identity_algebraic"].max
    report.conclusion_checks.append(CheckResult(
        "newton-combination-semidefinite", cal["implication_respected"],
        cal["min_eigenvalue"],
        "semidefiniteness of the weighted Newton combination, required "
        "only when the sign hypotheses hold"
        + ("" if cal["sign_hypotheses_hold"] else " (they do not here)")))

    if float(np.min(hk_vals)) > 0.0:
        with np.errstate(invalid="ignore"):
            root = np.where(geom.H[..., k] > 0.0,
                            np.abs(geom.H[..., k]) ** (1.0 / k), np.inf)
        cm = geom.c[k - 1]
        elliptic_step = cm * geom.rho * (
            geom.hcal ** k
            + (-1.0) ** (k - 1) * geom.theta ** k * geom.H[..., k])
        where = mask & (geom.hcal >= root - 1e-12)
        if branch == "nonpositive" and bool(np.any(where)):
            step_min = float(np.min(elliptic_step[where]))
            scale = max(1.0, float(np.max(np.abs(elliptic_step[mask]))))
            report.conclusion_checks.append(CheckResult(
                "maximum-principle-step", step_min >= -tol * scale,
                step_min,
                "the sigma-combination is nonnegative wherever the "
                "warping speed dominates the k-th root of the curvature"))
        else:
            notes.append("maximum-principle step not exercised: it is "
                         "formulated in the nonpositive-angle branch")
    else:
        notes.append("maximum-principle step skipped: H_k is not positive "
                     "so its k-th root is undefined")

    if spec["kind"] == "parabolic":
        frak = operators.frak_phi(imm, k, cfg, geom=geom)
        if frak.get("applicable"):
            report.residuals["divergence-form-residual"] = frak["residual"].max
            field_vals = _interior(geom, frak["field"])
            scale = max(1.0, float(np.max(np.abs(field_vals))))
            floor = 1e-8   # absolute slack for a field that sits near zero
            report.conclusion_checks.append(CheckResult(
                "divergence-form-subharmonicity",
                float(np.min(field_vals)) >= -max(tol * scale, floor),
                float(np.min(field_vals)),
                "div-form operator applied to the conserved combination "
                "must be nonnegative under the hypotheses"))
            term_min = min_or_nan(frak["term_minima"].values())
            report.conclusion_checks.append(CheckResult(
                "nonnegative-term-decomposition", term_min >= -tol,
                term_min,
                "each closed-form term of the divergence identity is "
                "separately nonnegative"))
        else:
            notes.append("divergence-form audit skipped: H_k is not "
                         "positive on the whole grid")

    report.residuals["order-curvature-spread"] = spread
    report.residuals["height-spread"] = height_spread
    report.data = {
        "theorem_kind": spec["kind"],
        "k": k,
        "slab": [lo_u, hi_u],
        "angle_branch": branch,
        "elliptic_point": elliptic,
        "realized_constants": realized,
        "fiber_curvature": kappa,
        "profile_alpha": alpha,
        "input_orientation": input_orientation,
        "orientation_flipped": flipped,
        "notes": notes,
    }
    return report.finalize()


# ---------------------------------------------------------------------------
# parabolicity criterion
# ---------------------------------------------------------------------------

def sphere_area_constant(m: int) -> float:
    """Area 2 pi^(m/2) / Gamma(m/2) of the unit sphere in R^m.  Raises
    ValueError from m = 344 up, where Gamma(m/2) overflows a float."""
    try:
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:
        raise ValueError(f"dimension m={m}: Gamma(m/2) in the unit-sphere "
                         f"area overflows; m must be below 344") from None


def parabolicity_integral(model: RadialModel, H_profile, k: int,
                          t_max: float = None) -> dict:
    """Divergence test for the weighted-volume integral criterion.

    Integrates 1 / (H_profile(t) * area(geodesic sphere of radius t)) and
    compares successive dyadic increments: a non-shrinking tail increment
    is the numeric signature of a divergent (non-integrable) tail, which
    is the criterion for the divergence-form operator of order k-1 to be
    parabolic.  ``H_profile`` is the sup of the order-(k-1) curvature
    over the geodesic sphere, supplied as a callable or a constant.
    Raises ValueError when either increment is not positive and finite,
    since no trend can be read from it.
    """
    from scipy.integrate import quad

    if k < 1:
        raise ValueError(f"curvature order k={k} must be at least 1")
    if callable(H_profile):
        profile = H_profile
    else:
        const = float(H_profile)
        profile = lambda t: const + 0.0 * np.asarray(t)

    T = float(t_max) if t_max is not None else max(4.0, 2.0 * model.R)
    ts = np.linspace(T / 100.0, T, 400)
    h_vals = np.asarray(profile(ts), dtype=float)
    if np.any(h_vals <= 0.0):
        bad = float(ts[int(np.argmin(h_vals))])
        raise ValueError(
            f"curvature profile must be positive; found "
            f"{float(np.min(h_vals)):.3e} near t={bad:.4g}")

    m = model.m
    omega = sphere_area_constant(m)

    def integrand(t):
        return 1.0 / (profile(t) * omega * model.f(t) ** (m - 1))

    # an overflowed sphere area gives the integrand its limit, 0; an
    # underflowed one (large m, small t) gives inf, since the integrand
    # exceeds the float range there
    with np.errstate(over="ignore", divide="ignore"):
        values = integrand(ts)
        inc1, _ = quad(integrand, T / 4.0, T / 2.0, limit=200)
        inc2, _ = quad(integrand, T / 2.0, T, limit=200)
    for (lo, hi), inc in (((T / 4.0, T / 2.0), inc1), ((T / 2.0, T), inc2)):
        if not (math.isfinite(inc) and inc > 0.0):
            raise ValueError(
                f"parabolicity: the increment over [{lo:.4g}, {hi:.4g}] is "
                f"{inc:.3e}; the trend needs a positive finite one")
    # the slack is relative, so scaling the profile cannot move the verdict
    divergent = inc2 >= (0.5 - 1e-12) * inc1

    return {
        "model": model.name,
        "dimension": m,
        "k": k,
        "sphere_area_constant": omega,
        "t_max": T,
        "ts": [float(t) for t in ts],
        "integrand": [float(v) for v in values],
        "increment_first": float(inc1),
        "increment_second": float(inc2),
        "increment_ratio": float(inc2 / inc1),
        "divergent_trend": bool(divergent),
        "parabolic_criterion": bool(divergent),
    }
