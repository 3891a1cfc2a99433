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
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ._grid import golden_max


# ---------------------------------------------------------------------------
# growth functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFunction:
    """A curvature growth bound G with its derivative.

    ``fn`` must be pure: comparison solves with one instance share their
    RK45 steps, so a later solve reads G's values from an earlier one.
    The last solve's steps are kept on the instance, so
    ``dataclasses.replace`` starts without them and they are freed
    with G.  ``builtin_growth`` and ``default_growth_for`` build a new
    instance on every call, so no solve outlives its caller.
    """

    name: str
    fn: callable
    dfn: callable
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __call__(self, t):
        """G at ``t``.  A float (``np.float64`` included) is passed to
        ``fn`` as a Python float, as the comparison ODE's right-hand side
        passes each point, so a scalar pays for no 0-d array; ``fn`` must
        return the double its array evaluation gives at that point."""
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

    if not 0.0 < T < math.inf:
        raise ValueError(f"need a finite T > 0, got {T:g}")
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
        # where both sides overflow the ratio inf/inf is NaN, and so is
        # the slope fitted through it: the bounded verdict fails
        with np.errstate(invalid="ignore"):
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

class _RK45Steps:
    """The accepted steps of one forward RK45 solve of the comparison ODE
    on [0, T], and its dense solution.

    ``starts[k]`` is the solver state (t, y, f, proposed h_abs) before
    step k, and ``starts[-1]`` the state after the last step taken (the
    state a failed step left unchanged).  ``steps[k]`` is step k's dense
    output (t_old, h, Q, y_old): it covers [t_old, t_old + h] and holds
    y(t) = y_old + h Q p(x), with x = (t - t_old)/h and
    p = (x, x^2, x^3, x^4) (Shampine, Math. Comp. 46 (1986)).  A point is
    read from the step whose end is the first one at or past it (the
    first and last steps extend the range), with the products and the
    ``np.dot`` scipy's ``OdeSolution`` computes, so every value is the
    same double.
    """

    def __init__(self, T: float, starts: list, steps: list):
        self.T = T
        self.starts = starts
        self.steps = steps
        self._ends_array = np.array([s[0] for s in starts[1:]], dtype=float)
        self._ends = self._ends_array.tolist()
        self._last = len(steps) - 1

    def __call__(self, t):
        """The state at a float ``t`` (shape (4,)), or at a non-decreasing
        1-D array of points (shape (4, len(t)))."""
        if isinstance(t, float):
            t_old, h, Q, y_old = self.steps[
                min(bisect_left(self._ends, t), self._last)]
            x = (t - t_old) / h
            x2 = x * x
            x3 = x2 * x
            return h * np.dot(Q, np.array((x, x2, x3, x3 * x))) + y_old
        t = np.asarray(t, dtype=float)
        if t.ndim != 1:
            raise ValueError("dense points must be a float or a 1-D array")
        if np.any(t[1:] < t[:-1]):
            raise ValueError("dense points must be non-decreasing")
        steps = np.minimum(np.searchsorted(self._ends_array, t, side="left"),
                           self._last)
        starts = np.flatnonzero(np.diff(steps, prepend=-1)).tolist()
        out = np.empty((4, t.size))
        for lo, hi in zip(starts, starts[1:] + [t.size]):
            t_old, h, Q, y_old = self.steps[steps[lo]]
            p = np.empty((4, hi - lo))
            x = np.divide(np.subtract(t[lo:hi], t_old), h, out=p[0])
            for k in range(1, 4):
                np.multiply(p[k - 1], x, out=p[k])
            y = h * np.dot(Q, p)
            y += y_old[:, None]
            out[:, lo:hi] = y
        return out


class _RK45Stepper:
    """scipy's RK45 steps without its per-call wrappers: ``step`` is
    ``RungeKutta._step_impl`` with ``rk_step`` written out, for a forward
    solve with no maximum step, and ``dense_output`` gives the step's
    (t_old, h, Q, y_old) as ``RkDenseOutput`` holds them.

    The state, tolerances, tableau and first step are read from a
    constructed ``scipy.integrate.RK45``.  Every product, sum, ``np.dot``
    and power is the one scipy computes, on arrays of the same layout,
    so each double is scipy's.  The right-hand side is called directly,
    not through scipy's two function wrappers, and no ``OdeSolver.step``
    bookkeeping or dense-output object is made, which saves about a
    third of the stepping time.
    """

    # the step-size factors of scipy.integrate._ivp.rk
    SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10

    def __init__(self, solver, rhs):
        self.rhs = rhs
        self.T = solver.t_bound
        self.rtol, self.atol = solver.rtol, solver.atol
        self.exponent = solver.error_exponent
        self.too_small = solver.TOO_SMALL_STEP
        self.t, self.y, self.f = solver.t, solver.y, solver.f
        self.h_abs = solver.h_abs
        self.K = K = np.empty_like(solver.K)
        # the views of K and rows of the tableau rk_step takes per stage
        self.stages = [(s, K[:s].T, solver.A[s, :s], float(solver.C[s]))
                       for s in range(1, solver.n_stages)]
        self.B, self.E, self.P = solver.B, solver.E, solver.P
        self.status = "running"

    def step(self):
        """One accepted step, or status "failed" and scipy's message."""
        t, y, rhs, K = self.t, self.y, self.rhs, self.K
        rtol, atol, exponent = self.rtol, self.atol, self.exponent
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min_step if self.h_abs < min_step else self.h_abs
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return self.too_small
            t_new = min(t + h_abs, self.T)
            h = t_new - t
            h_abs = abs(h)
            K[0] = self.f
            for s, K_s, a, c in self.stages:
                K[s] = rhs(t + c * h, y + np.dot(K_s, a) * h)
            y_new = y + h * np.dot(K[:-1].T, self.B)
            f_new = np.array(rhs(t + h, y_new), dtype=float)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = np.dot(K.T, self.E) * h / scale
            # scipy's RMS norm: np.linalg.norm's sqrt(x . x) over sqrt(4);
            # math.sqrt and pow are numpy's on a float, and faster
            error_norm = math.sqrt(error.dot(error)) / 2.0
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(self.MAX_FACTOR,
                                 self.SAFETY * error_norm ** exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(self.MIN_FACTOR, self.SAFETY * error_norm ** exponent)
            rejected = True
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return None

    def dense_output(self):
        """The last step's (t_old, h, Q, y_old)."""
        return (float(self.t_old), float(self.t - self.t_old),
                self.K.T.dot(self.P), self.y_old)


def _integrate(G: GrowthFunction, T: float) -> _RK45Steps:
    """The RK45 solve of phi'' = G phi, phi(0) = 0, phi'(0) = 1 on
    [0, T], at rtol 1e-11 and atol 1e-13: the loop ``solve_ivp`` runs.

    The state is (phi, phi', integral of sqrt(G), integral of G^{-1/2}).
    The steps a previous solve with this ``G`` already took are replayed,
    not recomputed.  The step-size controller reads the horizon only
    when the horizon clips a step (Hairer, Norsett and Wanner, *Solving
    ODE I*, II.4), and ``select_initial_step`` when it clips the first
    guess.  So with the same first step, every stored step whose first
    attempt t + h (h clamped to the solver's minimum step) exceeds
    neither horizon is the step a fresh solve takes, and the solve goes
    on from the first step that either horizon would clip, with the
    stored state and proposed step.  Every double equals a fresh
    ``solve_ivp`` run's.  A ValueError refuses a T that is not finite
    and positive, a G(0) that is not, an integrator failure, and phi
    <= 0 at a step end.
    """
    from scipy.integrate import RK45

    if not 0.0 < T < math.inf:
        raise ValueError(f"need a finite T > 0, got {T:g}")
    if not 0.0 < float(G(0.0)) < math.inf:
        raise ValueError("G(0) must be positive and finite")
    T = float(T)

    # the solver and its right-hand side form a reference cycle, freed only
    # by the garbage collector; the right-hand side holds G's fn, not G,
    # so G and its stored steps are freed as soon as the caller drops G
    fn = G.fn

    def rhs(t, y):
        g = float(fn(float(t)))
        if g <= 0.0:
            raise ValueError(f"G({t}) <= 0 inside the domain")
        return [y[1], g * y[0], math.sqrt(g), 1.0 / math.sqrt(g)]

    # an overflowing G or phi makes the step fail, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        solver = _RK45Stepper(RK45(rhs, 0.0, [0.0, 1.0, 0.0, 0.0], T,
                                   rtol=1e-11, atol=1e-13), rhs)
        last = G._memo.get("rk45")
        starts = [(solver.t, solver.y, solver.f, solver.h_abs)]
        steps = []
        if last is not None and last.starts[0][3] == starts[0][3]:
            reach = min(T, last.T)
            for (t, _, _, h_abs), step, end in zip(
                    last.starts, last.steps, last.starts[1:]):
                # scipy raises the proposed step to 10 ulps of t, then
                # clips an attempt past the horizon
                h = max(h_abs, 10 * (math.nextafter(t, math.inf) - t))
                if t + h > reach:
                    break
                steps.append(step)
                starts.append(end)
            solver.t, solver.y, solver.f, solver.h_abs = starts[-1]
        while solver.t < T:
            message = solver.step()
            if solver.status == "failed":
                break
            steps.append(solver.dense_output())
            starts.append((solver.t, solver.y, solver.f, solver.h_abs))
    run = G._memo["rk45"] = _RK45Steps(T, starts, steps)
    if solver.status == "failed":
        raise ValueError(f"comparison integrator failed: {message}")
    if min(y[0] for _, y, _, _ in starts[1:]) <= 0.0:
        raise ValueError("phi lost positivity on (0, T]; growth function "
                         "rejected")
    return run


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
    report: dict


def solve_comparison(G: GrowthFunction, T: float) -> ComparisonSolution:
    """Integrate phi'' = G phi, phi(0) = 0, phi'(0) = 1 on [0, T].

    ``_integrate``'s RK45 solve, sampled at 2001 points, with the Sturm,
    Riccati and envelope report.  The integration state carries the
    cumulative integrals of sqrt(G) (for psi) and of G^{-1/2} (for the
    envelope).  A later solve with the same ``G`` replays the steps it
    shares with this one.  The growth function is rejected with a
    ValueError if the integrator fails or phi loses positivity on (0, T].
    """
    run = _integrate(G, T)
    ts = np.linspace(0.0, T, 2001)
    # the dense solution evaluates ts grouped by step, as a t_eval loop
    # would, so the samples are the same doubles
    phi, dphi, I_sqrtG, I_invsqrtG = run(ts)

    gvals = np.asarray(G(ts))
    # G's value at the float 0, which its array value at ts[0] = 0 equals
    sqrt_g0 = math.sqrt(gvals[0])
    psi = (np.exp(I_sqrtG) - 1.0) / sqrt_g0
    dpsi = np.sqrt(gvals) * np.exp(I_sqrtG) / sqrt_g0
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
    # E''/E rounds to a few eps/h^2 (seen: up to 1.97 eps/h^2 for G = 1,
    # 4, 1 + t^2 and exp(t^2) with T from 1e-6 to 10), far above 1e-8 for
    # a short domain, so the nonnegativity gate allows twice that
    env_slack = 1e-8 + 4.0 * np.finfo(float).eps / (h * h)

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
        "envelope_identity_nonneg": bool(np.min(lhs_env) >= -env_slack),
        "phi_ratio_bound": phi_ratio_bound,
        "envelope_ratio_bound": env_ratio_bound,
    }
    return ComparisonSolution(ts=ts, phi=phi, dphi=dphi, psi=psi, dpsi=dpsi,
                              envelope=envelope, report=report)


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


def _refuse_underflowing_squares(model: RadialModel) -> None:
    """Refuse a model radius at which gamma = r^2 is not a normal double
    on the outer half [R/2, R], where the realized constants divide by
    sqrt(gamma G(sqrt gamma)), which reads 0 at R = 1e-300."""
    half = 0.5 * model.R   # a float product, not **, which can raise
    if half * half < np.finfo(float).tiny:
        raise ValueError(f"model radius {model.R:g} is too small: r^2 "
                         f"underflows on [R/2, R]")


def hessian_comparison_check(model: RadialModel, G: GrowthFunction) -> dict:
    """Hessian comparison on a radial model against the growth bound G.

    Requires the curvature hypothesis -f''/f >= -G(r) on (0, R]
    (otherwise not-applicable, reporting the violating radius); then
    checks f'/f <= phi'/phi pointwise and reports the realized constant
    in Hess(r^2) <= c sqrt(gamma G(sqrt gamma)) g over the outer half of
    the domain (the closed-form eigenvalues of Hess(r^2) are 2 and
    2 r f'/f).
    """
    _refuse_underflowing_squares(model)
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

    phi, dphi = _integrate(G, model.R)(rs)[:2]
    ratio_phi = dphi / phi
    ratio_f = model.volume_slope(rs)
    margin = ratio_phi - ratio_f
    # both ratios grow like 1/r near the origin and round to a few ulps of
    # their size, so the gate scales with them; a margin that is not
    # finite fails it
    slack = 1e-8 * np.maximum(1.0, np.maximum(np.abs(ratio_phi),
                                              np.abs(ratio_f)))
    holds = np.isfinite(margin) & (margin >= -slack)

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
        "slope_comparison_holds": bool(np.all(holds)),
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
    _refuse_underflowing_squares(model)
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
        run = _integrate(G, T)
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

    envelope_rs = np.exp(run(np.minimum(rs ** 2, T))[3])
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
                             / np.exp(run(min(r * r, T))[3]) ** (1.0 / j))
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
