"""Growth functions, comparison ODEs, and maximum-principle probes.

The toolkit works on a finite domain [0, T] and is explicit about it:
asymptotic conditions (integral divergence, limsup finiteness) are
reported as sampled trends with slopes, never as boolean truths about
infinity.  Closed-form cases (constant growth, hyperbolic models) pin
every verdict in the test suite.

Two distinct auxiliary functions appear:

* ``phi``: the solution of phi'' = G phi, phi(0) = 0, phi'(0) = 1, used
  in Sturm and Hessian comparison;
* the *envelope* exp(integral of G^{-1/2}), used by the sequence probe;
  it satisfies (E'/E)^2 - E''/E = (1/2) G^{-3/2} G' exactly (note the
  factor 1/2; the identity is re-derived in the decision ledger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._grid import golden_max


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFunction:
    """A curvature growth bound G with its derivative."""

    name: str
    fn: callable
    dfn: callable

    def __call__(self, t):
        """G at ``t``.  A float (``np.float64`` included) is passed to
        ``fn`` as a Python float, so the comparison ODE's right-hand side
        pays for no 0-d array; ``fn`` must return the double its array
        evaluation gives at that point."""
        return self.fn(float(t) if isinstance(t, float)
                       else np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.dfn(np.asarray(t, dtype=float))


def _constant(level: float):
    """Growth values of the constant ``level``: the level itself at a
    float, a filled array otherwise."""
    return lambda t: level if isinstance(t, float) else np.full_like(t, level)


GROWTH_FUNCTIONS = {
    "one": lambda: GrowthFunction("one", _constant(1.0), np.zeros_like),
    # t * t, not t ** 2: Python's pow need not round as numpy's square
    "quadratic": lambda: GrowthFunction(
        "quadratic", lambda t: 1.0 + t * t, lambda t: 2.0 * t),
    # np.exp, not math.exp, which rounds differently at some points
    "exp-square": lambda: GrowthFunction(
        "exp-square", lambda t: np.exp(t * t),
        lambda t: 2.0 * t * np.exp(t * t)),
}


def builtin_growth(name: str) -> GrowthFunction:
    try:
        return GROWTH_FUNCTIONS[name]()
    except KeyError:
        raise KeyError(f"unknown growth function {name!r}; "
                       f"registered: {sorted(GROWTH_FUNCTIONS)}")


def check_growth_conditions(G: GrowthFunction, T: float) -> dict:
    """Sampled verdicts for the four admissibility conditions of G.

    (i)   G(0) > 0;
    (ii)  G' >= 0 on [0, T];
    (iii) integral of G^{-1/2} keeps growing on a dyadic ladder
          (divergence heuristic: the [T/2, T] increment is at least
          half the [T/4, T/2] increment);
    (iv)  t G(sqrt t)/G(t) stays bounded: reported as the sampled max
          on [1, T] together with its log-log trend slope (bounded
          verdict when the slope is below 0.25).

    (iii) and (iv) are finite-domain heuristics and flagged as such.
    """
    # scipy.integrate is most of the package's import time: load it on use
    from scipy.integrate import quad

    if T <= 0:
        raise ValueError("need T > 0")
    # a fast-growing G such as exp(t^2) overflows to inf inside [0, T]; the
    # infs carry into the verdicts, so numpy's warnings would only add noise
    with np.errstate(over="ignore"):
        g0 = float(G(0.0))
        out = {
            "G0": g0,
            "i_positive_at_zero": g0 > 0.0,
            "heuristic": True,
            "domain": (0.0, float(T)),
        }
        ts = np.linspace(0.0, T, 2000)
        dG = G.derivative(ts)
        out["ii_min_derivative"] = float(np.min(dG))
        out["ii_nondecreasing"] = bool(
            np.min(dG) >= -1e-12 * max(1.0, float(np.max(np.abs(dG)))))

        if not out["i_positive_at_zero"] or float(np.min(G(ts))) <= 0.0:
            out.update({"iii_divergent_trend": False, "iv_bounded_trend": False,
                        "all_pass": False})
            return out

        def inv_sqrt(t):
            return 1.0 / math.sqrt(float(G(t)))

        seg1, _ = quad(inv_sqrt, T / 4.0, T / 2.0, limit=200)
        seg2, _ = quad(inv_sqrt, T / 2.0, T, limit=200)
        head, _ = quad(inv_sqrt, 0.0, T / 4.0, limit=200)
        out["iii_integral"] = head + seg1 + seg2
        out["iii_increments"] = (seg1, seg2)
        out["iii_divergent_trend"] = bool(seg2 >= 0.5 * seg1)

        upper = max(T, 1.0 + 1e-6)
        tv = np.geomspace(1.0, upper, 200)
        ratio = tv * np.asarray(G(np.sqrt(tv))) / np.asarray(G(tv))
        slope = float(np.polyfit(np.log(tv),
                                 np.log(np.maximum(ratio, 1e-300)), 1)[0])
        out["iv_max_ratio"] = float(np.max(ratio))
        out["iv_trend_slope"] = slope
        out["iv_bounded_trend"] = bool(slope < 0.25)

        out["all_pass"] = bool(
            out["i_positive_at_zero"] and out["ii_nondecreasing"]
            and out["iii_divergent_trend"] and out["iv_bounded_trend"])
        return out


# ---------------------------------------------------------------------------
# the comparison ODE pair
# ---------------------------------------------------------------------------

@dataclass
class ComparisonSolution:
    """phi'' = G phi alongside its explicit supersolution psi.

    ``envelope`` is exp(integral of G^{-1/2}), the slowly growing
    auxiliary function used by the sequence probe.  ``report`` carries
    the Sturm margins and the realized constants.
    """

    ts: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    envelope: np.ndarray
    domain: tuple
    report: dict
    _dense: object = field(default=None, repr=False)

    def envelope_at(self, t):
        return np.exp(self._dense(np.asarray(t, dtype=float))[3])


def solve_comparison(G: GrowthFunction, T: float) -> ComparisonSolution:
    """Integrate phi'' = G phi, phi(0) = 0, phi'(0) = 1 on [0, T].

    RK45 at rtol 1e-11, atol 1e-13, sampled at 2001 points.  The
    integration state carries the cumulative integrals of sqrt(G) (for
    psi) and of G^{-1/2} (for the envelope).  The growth function is
    rejected with a ValueError if the integrator fails or phi loses
    positivity on (0, T].
    """
    from scipy.integrate import solve_ivp

    if not 0.0 < T < math.inf:
        raise ValueError(f"need a finite T > 0, got {T:g}")
    g0 = float(G(0.0))
    if not 0.0 < g0 < math.inf:
        raise ValueError("G(0) must be positive and finite")

    def rhs(t, y):
        g = float(G(t))
        if g <= 0.0:
            raise ValueError(f"G({t}) <= 0 inside the domain")
        return [y[1], g * y[0], math.sqrt(g), 1.0 / math.sqrt(g)]

    ts = np.linspace(0.0, T, 2001)
    # an overflowing G or phi makes the step fail, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, T), [0.0, 1.0, 0.0, 0.0], rtol=1e-11,
                        atol=1e-13, dense_output=True, method="RK45")
    if not sol.success:
        raise ValueError(f"comparison integrator failed: {sol.message}")
    # the dense solution evaluates ts grouped by step, as a t_eval loop
    # would, so the samples are the same doubles
    phi, dphi, I_sqrtG, I_invsqrtG = sol.sol(ts)
    if float(np.min(phi[1:])) <= 0.0:
        raise ValueError("phi lost positivity on (0, T]; growth function rejected")

    gvals = np.asarray(G(ts))
    psi = (np.exp(I_sqrtG) - 1.0) / math.sqrt(g0)
    dpsi = np.sqrt(gvals) * np.exp(I_sqrtG) / math.sqrt(g0)
    envelope = np.exp(I_invsqrtG)

    # Sturm: phi'/phi <= psi'/psi on (0, T]; psi'/psi <= c sqrt(G) with
    # the realized c taken over the upper half of the domain.
    interior = ts > 0
    ratio_phi = dphi[interior] / phi[interior]
    ratio_psi = dpsi[interior] / psi[interior]
    sturm_margin = ratio_psi - ratio_phi
    upper = ts[interior] >= T / 2.0
    c_sturm = float(np.max(ratio_psi[upper] / np.sqrt(gvals[interior][upper])))

    # Riccati-type bound for the IVP solution: (phi'/phi)^2 >= G when G
    # is non-decreasing.
    riccati = ratio_phi ** 2 - gvals[interior]

    # psi'' - G psi >= 0, by differencing psi on the uniform grid
    h = ts[1] - ts[0]
    d2psi = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / (h * h)
    psi_convexity = d2psi - gvals[1:-1] * psi[1:-1]

    # envelope identity (E'/E)^2 - E''/E = (1/2) G^{-3/2} G', differenced
    dE = (envelope[2:] - envelope[:-2]) / (2.0 * h)
    d2E = (envelope[2:] - 2.0 * envelope[1:-1] + envelope[:-2]) / (h * h)
    lhs_env = (dE / envelope[1:-1]) ** 2 - d2E / envelope[1:-1]
    rhs_env = 0.5 * gvals[1:-1] ** (-1.5) * np.asarray(G.derivative(ts[1:-1]))
    env_resid = lhs_env - rhs_env

    # realized bound constants for the ratio against sqrt(t G(sqrt t))
    tail = ts >= min(1.0, 0.5 * T)
    weight = np.sqrt(ts[tail] * np.asarray(G(np.sqrt(ts[tail]))))
    phi_ratio_bound = float(np.max(dphi[tail] / phi[tail] * weight))
    env_ratio_bound = float(np.max(weight / np.sqrt(gvals[tail])))

    report = {
        "sturm_min_margin": float(np.min(sturm_margin)),
        "sturm_holds": bool(np.min(sturm_margin) >= -1e-8),
        "c_sturm": c_sturm,
        "riccati_min": float(np.min(riccati)),
        "psi_convexity_min": float(np.min(psi_convexity)),
        "envelope_identity_max": float(np.max(np.abs(env_resid))),
        "envelope_identity_nonneg": bool(np.min(lhs_env) >= -1e-8),
        "phi_ratio_bound": phi_ratio_bound,
        "envelope_ratio_bound": env_ratio_bound,
    }
    return ComparisonSolution(ts=ts, phi=phi, dphi=dphi, psi=psi, dpsi=dpsi,
                              envelope=envelope, domain=(0.0, float(T)),
                              report=report, _dense=sol.sol)


# ---------------------------------------------------------------------------
# radial models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialModel:
    """Rotationally symmetric model dr^2 + f(r)^2 (round metric).

    ``f`` must vanish at the origin with unit slope; the radial
    sectional curvature is -f''/f.
    """

    m: int
    f: callable
    df: callable
    d2f: callable
    R: float
    name: str = "custom"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("model dimension must be >= 2")
        if self.R <= 0:
            raise ValueError("need a positive maximum radius")
        if abs(float(self.f(1e-8))) > 1e-6 or abs(float(self.df(0.0)) - 1.0) > 1e-8:
            raise ValueError("radial factor must satisfy f(0) = 0, f'(0) = 1")
        rs = np.linspace(self.R / 512.0, self.R, 512)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = [np.asarray(g(rs), dtype=float)
                       for g in (self.f, self.df, self.d2f)]
        if not all(np.all(np.isfinite(v)) for v in samples):
            raise ValueError("radial factor or its derivatives overflow "
                             "on (0, R]")
        if float(np.min(samples[0])) <= 0.0:
            raise ValueError("radial factor must be positive on (0, R]")

    def volume_slope(self, r):
        """f'/f, the logarithmic derivative entering radial Laplacians."""
        r = np.asarray(r, dtype=float)
        return self.df(r) / self.f(r)


MODELS = {
    "hyperbolic": lambda m=2, R=3.0: RadialModel(
        m=m, f=np.sinh, df=np.cosh, d2f=np.sinh, R=R, name="hyperbolic"),
    "flat": lambda m=2, R=3.0: RadialModel(
        m=m, f=lambda r: np.asarray(r, dtype=float),
        df=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        d2f=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        R=R, name="flat"),
    "stretched": lambda m=2, R=3.0: RadialModel(
        m=m, f=lambda r: 0.5 * np.sinh(2.0 * np.asarray(r, dtype=float)),
        df=lambda r: np.cosh(2.0 * np.asarray(r, dtype=float)),
        d2f=lambda r: 2.0 * np.sinh(2.0 * np.asarray(r, dtype=float)),
        R=R, name="stretched"),
}


def builtin_model(name: str, **params) -> RadialModel:
    try:
        return MODELS[name](**params)
    except KeyError:
        raise KeyError(f"unknown model {name!r}; registered: {sorted(MODELS)}")


def hessian_comparison_check(model: RadialModel, G: GrowthFunction) -> dict:
    """Hessian comparison on a radial model against the growth bound G.

    Requires the curvature hypothesis -f''/f >= -G(r) on (0, R]
    (otherwise not-applicable, reporting the violating radius); then
    checks f'/f <= phi'/phi pointwise and reports the realized constant
    in Hess(r^2) <= c sqrt(gamma G(sqrt gamma)) g over the outer half of
    the domain (the closed-form eigenvalues of Hess(r^2) are 2 and
    2 r f'/f).
    """
    rs = np.linspace(model.R / 2000, model.R, 2000)
    with np.errstate(over="ignore"):   # an infinite bound holds trivially
        curv_margin = np.asarray(G(rs)) - model.d2f(rs) / model.f(rs)
    if float(np.min(curv_margin)) < -1e-10:
        bad = int(np.argmin(curv_margin >= -1e-10))
        return {
            "applicable": False,
            "violating_radius": float(rs[bad]),
            "curvature_margin_min": float(np.min(curv_margin)),
        }

    phi, dphi = solve_comparison(G, model.R)._dense(rs)[:2]
    ratio_phi = dphi / phi
    ratio_f = model.volume_slope(rs)
    margin = ratio_phi - ratio_f

    # Hess(r^2) eigenvalues {2, 2 r f'/f}; realized constant on the
    # outer half, where the squared distance is large
    outer = rs >= model.R / 2.0
    lam_max = np.maximum(2.0, 2.0 * rs * ratio_f)
    gamma = rs ** 2
    denom = np.sqrt(gamma * np.asarray(G(np.sqrt(gamma))))
    c_hess = float(np.max(lam_max[outer] / denom[outer]))

    return {
        "applicable": True,
        "violating_radius": None,
        "curvature_margin_min": float(np.min(curv_margin)),
        "slope_margin_min": float(np.min(margin)),
        "slope_comparison_holds": bool(np.min(margin) >= -1e-8),
        "equality_gap_max": float(np.max(np.abs(margin))),
        "hessian_constant": c_hess,
        "radii": rs,
        "phi_ratio": ratio_phi,
        "model_ratio": ratio_f,
    }


# ---------------------------------------------------------------------------
# sequence probe
# ---------------------------------------------------------------------------

@dataclass
class OmoriYauProbe:
    """Per-j maximizer records for the penalized-height sequence."""

    u_star: float
    p0_radius: float
    records: list
    boundary_flag: bool
    trends: dict
    gamma_constants: dict
    growth_name: str


def _normalize_selector(L):
    """Operator selector -> (p_rad, p_tan) coefficient pair."""
    if L in (None, "laplacian"):
        return 1.0, 1.0
    if isinstance(L, (tuple, list)) and len(L) == 2:
        p_rad, p_tan = float(L[0]), float(L[1])
        if not (0.0 <= p_rad < math.inf and 0.0 <= p_tan < math.inf):
            raise ValueError("operator coefficients must be finite and "
                             "nonnegative")
        return p_rad, p_tan
    raise ValueError("operator selector must be 'laplacian' or a (p_rad, p_tan) pair")


def _derivatives(u, r):
    h = 1e-5
    up = (u(r + h) - u(r - h)) / (2.0 * h)
    upp = (u(r + h) - 2.0 * u(r) + u(r - h)) / (h * h)
    return float(up), float(upp)


def default_growth_for(model: RadialModel) -> GrowthFunction:
    """Constant growth bound dominating the model's radial curvature.

    The constant max(sup f''/f, 1) trivially satisfies all four
    admissibility conditions except the finite-domain limsup trend, and
    dominates -f''/f >= -G by construction.
    """
    rs = np.linspace(model.R / 512.0, model.R, 512)
    level = max(float(np.max(model.d2f(rs) / model.f(rs))), 1.0)
    return GrowthFunction(f"const-{level:g}", _constant(level), np.zeros_like)


def omori_yau_probe(model: RadialModel, u, L="laplacian", jmax: int = 20,
                    G: GrowthFunction = None) -> OmoriYauProbe:
    """Maximum-principle sequence probe on a radial model.

    ``u`` is a callable of r.  With p0 the argmax of ``u`` on a uniform
    grid of 4001 radii, for each j the field
    (u - u(p0) + 1)/envelope(r^2)^{1/j} is maximized over the grid (grid
    argmax, ties to the smallest radius, then golden-section refinement).
    The record for j holds the maximizer radius, the gap u* - u(p_j),
    |grad u|(p_j) = |u'|, and L u(p_j) for the selected radial operator
    L u = p_rad u'' + p_tan (m-1)(f'/f) u'.
    """
    if jmax < 1:
        raise ValueError("need jmax >= 1")
    p_rad, p_tan = _normalize_selector(L)
    if G is None:
        G = default_growth_for(model)
    n_r = 4001
    rs = np.linspace(0.0, model.R, n_r)
    u_grid = np.asarray(u(rs), dtype=float)
    if not np.all(np.isfinite(u_grid)):
        raise ValueError("height field must be finite")

    i_star = int(np.argmax(u_grid))
    u_star = float(u_grid[i_star])
    p0_radius = float(rs[i_star])

    T = model.R * model.R if model.R > 1 else 1.0
    try:
        sol = solve_comparison(G, T)
    except ValueError as exc:
        span = f"R^2 = {T:g}" if model.R > 1 else "1"
        raise ValueError(f"omori-yau probe: comparison ODE to T = {span} "
                         f"(model radius {model.R:g}) failed: {exc}") from exc

    # realized constants of the gamma = r^2 probe machinery:
    # |grad gamma| = 2r = 2 sqrt(gamma) exactly, and the operator bound
    # over the outer half of the domain
    mid = rs >= model.R / 2.0
    fs = model.volume_slope(rs[mid])
    l_gamma = p_rad * 2.0 + p_tan * (model.m - 1) * 2.0 * rs[mid] * fs
    denom = np.sqrt(rs[mid] ** 2 * np.asarray(G(rs[mid])))
    gamma_constants = {
        "gradient_constant": 2.0,
        "operator_constant": float(np.max(l_gamma / denom)),
    }

    def volume_slope_safe(r):
        return float(model.volume_slope(max(r, 1e-12)))

    envelope_rs = sol.envelope_at(np.minimum(rs ** 2, T))
    records = []
    boundary_flag = False
    for j in range(1, jmax + 1):
        fj = (u_grid - u_star + 1.0) / envelope_rs ** (1.0 / j)
        i = int(np.argmax(fj))
        r_j = float(rs[i])
        if i == n_r - 1:
            boundary_flag = True
        elif i > 0:
            def fj_cont(r):
                return float((u(r) - u_star + 1.0)
                             / sol.envelope_at(min(r * r, T)) ** (1.0 / j))
            r_j = golden_max(fj_cont, float(rs[i - 1]), float(rs[i + 1]))

        u_j = float(u(r_j))
        up, upp = _derivatives(u, max(r_j, 2e-5))
        Lu = p_rad * upp + p_tan * (model.m - 1) * volume_slope_safe(r_j) * up
        records.append({
            "j": j,
            "radius": r_j,
            "u": u_j,
            "gap": u_star - u_j,
            "grad_norm": abs(up),
            "Lu": Lu,
            "f_value": float(np.max(fj)),
        })

    gaps = np.array([rec["gap"] for rec in records])
    grads = np.array([rec["grad_norm"] for rec in records])
    lus = np.array([rec["Lu"] for rec in records])
    running_env = np.maximum.accumulate(lus[::-1])[::-1]
    trends = {
        "gap_nonincreasing": bool(np.all(np.diff(gaps) <= 1e-12)),
        "grad_nonincreasing": bool(np.all(np.diff(grads) <= 1e-12)),
        "operator_envelope_nonincreasing": bool(
            np.all(np.diff(running_env) <= 1e-12)),
        "final_gap": float(gaps[-1]),
        "final_grad": float(grads[-1]),
        "final_Lu": float(lus[-1]),
    }
    return OmoriYauProbe(
        u_star=u_star, p0_radius=p0_radius, records=records,
        boundary_flag=boundary_flag, trends=trends,
        gamma_constants=gamma_constants, growth_name=G.name)
