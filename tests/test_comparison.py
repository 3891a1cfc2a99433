"""Radial comparison machinery: ODE pair, growth admissibility, models,
and the maximum-principle sequence probe.

Closed-form oracles: G = 1 gives phi = sinh, psi = e^t - 1, envelope e^t;
G = 4 gives phi = sinh(2t)/2.
"""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from helpers import make_product
from warpcurv import ambient, comparison
from warpcurv._grid import golden_max
from warpcurv.ambient import PROFILES
from warpcurv.comparison import (
    GROWTH_FUNCTIONS,
    MODELS,
    GrowthFunction,
    RadialModel,
    builtin_growth,
    builtin_model,
    check_growth_conditions,
    default_growth_for,
    hessian_comparison_check,
    omori_yau_probe,
    solve_comparison,
)


# ---------------------------------------------------------------------------
# growth admissibility
# ---------------------------------------------------------------------------

def test_constant_growth_fails_the_ratio_trend():
    rep = check_growth_conditions(builtin_growth("one"), T=10.0)
    assert rep["i_positive_at_zero"]
    assert rep["ii_nondecreasing"]
    assert rep["iii_divergent_trend"]
    # t G(sqrt t)/G(t) = t is unbounded: the trend slope flags it
    assert not rep["iv_bounded_trend"]
    assert not rep["all_pass"]
    assert rep["heuristic"]


def test_quadratic_growth_passes_all_conditions():
    rep = check_growth_conditions(builtin_growth("quadratic"), T=10.0)
    assert rep["all_pass"], rep


def test_gaussian_growth_fails_divergence():
    rep = check_growth_conditions(builtin_growth("exp-square"), T=10.0)
    assert rep["i_positive_at_zero"] and rep["ii_nondecreasing"]
    assert not rep["iii_divergent_trend"]
    assert not rep["all_pass"]


def test_a_ratio_whose_sides_both_overflow_fails_the_bounded_trend():
    # at T = 1e300 both t G(sqrt t) and G(t) = 1 + t^2 overflow: their
    # ratio inf/inf is a quiet NaN, and so is the slope fitted through it
    rep = check_growth_conditions(builtin_growth("quadratic"), T=1e300)
    assert math.isnan(rep["iv_trend_slope"])
    assert not rep["iv_bounded_trend"]
    assert not rep["all_pass"]


def test_unknown_growth_names_registry():
    with pytest.raises(KeyError, match="registered"):
        builtin_growth("cubic")


# ---------------------------------------------------------------------------
# the ODE pair
# ---------------------------------------------------------------------------

def test_unit_growth_solution_is_sinh():
    sol = solve_comparison(builtin_growth("one"), T=10.0)
    ts = sol.ts[1:]
    rel = np.abs(sol.phi[1:] - np.sinh(ts)) / np.sinh(ts)
    assert float(np.max(rel)) <= 1e-8
    rel_d = np.abs(sol.dphi[1:] - np.cosh(ts)) / np.cosh(ts)
    assert float(np.max(rel_d)) <= 1e-8
    # envelope for G = 1 is e^t
    rel_env = np.abs(sol.envelope - np.exp(sol.ts)) / np.exp(sol.ts)
    assert float(np.max(rel_env)) <= 1e-8


def test_constant_four_growth_halves_the_scale():
    G4 = GrowthFunction(
        "const-4", lambda t: np.full_like(np.asarray(t, dtype=float), 4.0),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    sol = solve_comparison(G4, T=4.0)
    ts = sol.ts[1:]
    oracle = 0.5 * np.sinh(2.0 * ts)
    rel = np.abs(sol.phi[1:] - oracle) / oracle
    assert float(np.max(rel)) <= 1e-8


def test_sturm_endpoint_values():
    sol = solve_comparison(builtin_growth("one"), T=1.0)
    # phi = sinh, psi = e^t - 1: at t = 1 the log slopes are coth(1)
    # and e/(e-1), and the Sturm inequality is strict
    ratio_phi = sol.dphi[-1] / sol.phi[-1]
    ratio_psi = sol.dpsi[-1] / sol.psi[-1]
    assert abs(ratio_phi - 1.0 / math.tanh(1.0)) <= 1e-9
    assert abs(ratio_psi - math.e / (math.e - 1.0)) <= 1e-9
    assert ratio_phi < ratio_psi
    assert sol.report["sturm_holds"]


def test_sturm_margin_every_grid_point():
    for name in ("one", "quadratic"):
        sol = solve_comparison(builtin_growth(name), T=10.0)
        assert sol.report["sturm_min_margin"] >= -1e-8, name
        assert sol.report["sturm_holds"], name


def test_riccati_lower_bound_for_constant_growth():
    # (phi'/phi)^2 - G = csch^2 > 0 for G = 1
    sol = solve_comparison(builtin_growth("one"), T=10.0)
    assert sol.report["riccati_min"] >= -1e-8


def test_riccati_drift_for_growing_bound():
    # for G = 1 + t^2 the same quantity tends to -1 (the second-order
    # WKB correction), so the nonnegativity gate belongs to the envelope
    # function, not to the ODE solution; anchor the limit as a regression
    sol = solve_comparison(builtin_growth("quadratic"), T=10.0)
    assert abs(sol.report["riccati_min"] + 1.0) <= 1e-6
    assert sol.report["envelope_identity_nonneg"]


def test_supersolution_convexity_gap():
    # for G = 1: psi'' - psi = e^t - (e^t - 1) = 1 identically
    sol = solve_comparison(builtin_growth("one"), T=10.0)
    assert abs(sol.report["psi_convexity_min"] - 1.0) <= 1e-5


def test_envelope_identity_quadratic_growth():
    # (E'/E)^2 - E''/E = G^{-3/2} G' / 2; a wrong prefactor shows up
    # three orders of magnitude above this gate
    sol = solve_comparison(builtin_growth("quadratic"), T=10.0)
    assert sol.report["envelope_identity_max"] <= 5e-5
    assert sol.report["envelope_identity_nonneg"]


@pytest.mark.parametrize("name, T", [
    ("one", 0.3), ("one", 0.1), ("one", 1e-3), ("one", 1e-6),
    ("quadratic", 1e-3), ("quadratic", 1e-6), ("exp-square", 1e-3)])
def test_envelope_identity_holds_on_short_domains(name, T):
    # the second difference of E rounds to about 2 eps/h^2 with
    # h = T/2000, below -1e-8 for T <= 0.3; the gate scales with it
    sol = solve_comparison(builtin_growth(name), T)
    assert sol.report["envelope_identity_nonneg"]


@pytest.mark.parametrize("T", [5.0, 0.1, 1e-3])
def test_envelope_identity_fails_a_decreasing_growth(T):
    # G = 1/(1 + t) decreases: (E'/E)^2 - E''/E = G^{-3/2} G'/2 is -1/2
    # to first order, far below the rounding slack down to T = 1e-3
    G = GrowthFunction("decreasing", lambda t: 1.0 / (1.0 + t),
                       lambda t: -1.0 / (1.0 + t) ** 2)
    assert not solve_comparison(G, T).report["envelope_identity_nonneg"]


def test_envelope_log_slope():
    # the integrated state, not a formula: d/dt log E = G^{-1/2}, with
    # G = 1 + t^2, by a central difference of the dense log-envelope
    run = comparison._integrate(builtin_growth("quadratic"), 5.0)
    ts, h = np.array([0.5, 1.0, 3.0]), 1e-4
    slope = (run(ts + h)[3] - run(ts - h)[3]) / (2.0 * h)
    assert np.max(np.abs(slope - 1.0 / np.sqrt(1.0 + ts ** 2))) <= 1e-7


def _registered_and_default_growths():
    return ([builtin_growth(name) for name in GROWTH_FUNCTIONS]
            + [default_growth_for(builtin_model(name)) for name in MODELS])


@pytest.mark.parametrize("G", _registered_and_default_growths(),
                         ids=lambda G: G.name)
def test_growth_at_a_float_is_its_array_value(G):
    # the comparison ODE evaluates G one float at a time: each value must
    # be a plain number, the same double as that point of the array
    T = 10.0
    rng = np.random.default_rng(11)
    ts = np.concatenate([np.linspace(0.0, T, 5001), rng.uniform(0.0, T, 5000)])
    values = G(ts)
    for t, value in zip(ts.tolist(), values.tolist()):
        for point in (t, np.float64(t)):
            at = G(point)
            assert not isinstance(at, np.ndarray)
            assert at == value, (G.name, t)


def _t_eval_solve(G, T):
    """solve_comparison's samples as a t_eval solve gives them, with G at
    each step wrapped in a 0-d array."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        g = float(G.fn(np.asarray(t, dtype=float)))
        return [y[1], g * y[0], math.sqrt(g), 1.0 / math.sqrt(g)]

    ts = np.linspace(0.0, T, 2001)
    sol = solve_ivp(rhs, (0.0, T), [0.0, 1.0, 0.0, 0.0], t_eval=ts,
                    rtol=1e-11, atol=1e-13, dense_output=True, method="RK45")
    phi, dphi, I_sqrtG, I_invsqrtG = sol.y
    g0 = math.sqrt(float(G(0.0)))
    return {"phi": phi, "dphi": dphi, "psi": (np.exp(I_sqrtG) - 1.0) / g0,
            "dpsi": np.sqrt(G(ts)) * np.exp(I_sqrtG) / g0,
            "envelope": np.exp(I_invsqrtG)}


@pytest.mark.parametrize("name, T", [
    ("one", 1.0), ("one", 5.5), ("one", 10.0), ("quadratic", 1.0),
    ("quadratic", 5.5), ("quadratic", 10.0), ("exp-square", 2.0)])
def test_samples_equal_a_t_eval_solve(name, T):
    G = builtin_growth(name)
    sol = solve_comparison(G, T)
    for key, oracle in _t_eval_solve(G, T).items():
        assert np.array_equal(getattr(sol, key), oracle), key


def _scipy_solve(G, T):
    """solve_comparison's RK45 solve, with scipy's own dense solution."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        g = float(G(t))
        return [y[1], g * y[0], math.sqrt(g), 1.0 / math.sqrt(g)]

    return solve_ivp(rhs, (0.0, T), [0.0, 1.0, 0.0, 0.0], rtol=1e-11,
                     atol=1e-13, dense_output=True, method="RK45")


# exp(t^2) outgrows RK45 before t = 5.5
_DENSE_CASES = [("one", 1.0), ("one", 5.5), ("one", 10.0), ("quadratic", 1.0),
                ("quadratic", 5.5), ("quadratic", 10.0), ("exp-square", 1.0),
                ("exp-square", 2.0)]


def test_dense_cases_cover_every_registered_growth():
    assert {name for name, _ in _DENSE_CASES} == set(GROWTH_FUNCTIONS)


@pytest.mark.parametrize("name, T", _DENSE_CASES)
def test_dense_solution_equals_scipys(name, T):
    # scipy's OdeSolution is the oracle: the evaluator reads the same step
    # polynomials with the same products, so every value is the same double
    G = builtin_growth(name)
    dense = comparison._integrate(G, T)
    oracle = _scipy_solve(G, T)
    rng = np.random.default_rng(30)
    # a step end is the edge between two steps, read from the earlier one
    points = np.concatenate([rng.uniform(0.0, T, 5000), oracle.t, [0.0, T]])
    for t in points.tolist():
        assert np.array_equal(dense(t), oracle.sol(t)), t
    # the grids of solve_comparison's samples, the probe's envelope radii
    # (with a radius whose ODE runs to T) and the Hessian check's radii
    R = math.sqrt(T) if T > 1.0 else 0.5
    grids = {"solve_comparison": np.linspace(0.0, T, 2001),
             "omori_yau_probe": np.minimum(np.linspace(0.0, R, 4001) ** 2, T),
             "hessian_comparison_check": np.linspace(T / 2000, T, 2000)}
    for caller, ts in grids.items():
        assert np.array_equal(dense(ts), oracle.sol(ts)), caller
    with pytest.raises(ValueError, match="non-decreasing"):
        dense(np.array([0.5 * T, 0.25 * T]))


def _counted(name):
    """A fresh instance of a registered growth, and the list of the float
    points its ``fn`` is called at (the comparison ODE's right-hand side
    and the refusal's G(0))."""
    base = builtin_growth(name)
    points = []

    def fn(t):
        if isinstance(t, float):
            points.append(t)
        return base.fn(t)

    return GrowthFunction(name, fn, base.dfn), points


def _assert_steps_equal(run, oracle):
    """Step for step, the solve is scipy's: (t_old, h, Q, y_old) and the
    step ends, and the dense solution at every step end and between."""
    steps = oracle.sol.interpolants
    assert len(run.steps) == len(steps)
    for (t_old, h, Q, y_old), step in zip(run.steps, steps):
        assert t_old == step.t_old and h == step.h
        assert np.array_equal(Q, step.Q) and np.array_equal(y_old, step.y_old)
    assert run._ends == [step.t for step in steps]
    points = np.concatenate([oracle.t, np.linspace(0.0, run.T, 301)]).tolist()
    for t in points:
        assert np.array_equal(run(t), oracle.sol(t)), t


@pytest.mark.parametrize("name, T", [("one", 6.0), ("quadratic", 6.0),
                                     ("exp-square", 2.0)])
def test_replayed_solves_equal_fresh_ones(name, T):
    # one instance through a sequence of horizons: each solve replays the
    # steps it shares with the one before, and equals a fresh solve_ivp
    G, points = _counted(name)
    steps = _scipy_solve(G, T).sol.interpolants
    end = float(steps[len(steps) // 2].t)
    horizons = [
        (T, "fresh"),
        (T / 2, "restart"),                 # shorter than the stored run
        (T / 2, "restart"),                 # equal: its last step was clipped
        (T, "extend"),                      # longer
        (end, "replay"),                    # a stored step's end
        (math.nextafter(end, 0.0), "restart"),
        (math.nextafter(end, math.inf), "restart"),
        (1e-7, "fresh"),                    # another first step
        (T / 3, "fresh"),
    ]
    first_step = None
    for horizon, kind in horizons:
        oracle = _scipy_solve(G, horizon)
        points.clear()
        _assert_steps_equal(comparison._integrate(G, horizon), oracle)
        # G(0) is the one float point outside the ODE; the solver's
        # constructor makes 2 evaluations and every step attempt 6
        evaluations = len(points) - 1
        if kind == "fresh":
            assert evaluations == oracle.nfev, horizon
            assert oracle.sol.interpolants[0].h != first_step
        elif kind == "replay":
            assert evaluations == 2, horizon
        elif kind == "extend":
            assert 2 < evaluations < oracle.nfev, horizon
        else:
            assert 2 < evaluations <= 2 + 6 * 3 < oracle.nfev, horizon
        first_step = oracle.sol.interpolants[0].h


@pytest.mark.parametrize("jump", [4.0, 1e300])
def test_rejected_attempts_and_failures_are_scipys(jump):
    # G jumps from 1 to ``jump`` at t = 1, where the step controller
    # rejects about 30 attempts; at 1e300 phi overflows until the step
    # falls below 10 ulps of t and the integrator fails.  The steps
    # taken, and the failure's message, are solve_ivp's
    G = GrowthFunction("jump", lambda t: 1.0 if t < 1.0 else jump,
                       np.zeros_like)
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = _scipy_solve(G, 2.0)
    steps = oracle.sol.interpolants
    assert oracle.nfev >= 2 + 6 * (len(steps) + 25)
    if oracle.status == 0:
        _assert_steps_equal(comparison._integrate(G, 2.0), oracle)
        return
    assert jump == 1e300
    with pytest.raises(ValueError) as refused:
        comparison._integrate(G, 2.0)
    assert str(refused.value) == ("comparison integrator failed: "
                                  + oracle.message)
    run = G._memo["rk45"]
    assert len(run.steps) == len(steps)
    for (t_old, h, Q, y_old), step in zip(run.steps, steps):
        assert t_old == step.t_old and h == step.h
        assert np.array_equal(Q, step.Q) and np.array_equal(y_old, step.y_old)


def test_a_failed_solve_is_replayed_like_a_stored_one():
    # G jumps from 1 to 1e300 at t = 1, where a solve to 2 fails (see
    # above).  The failed solve keeps the steps it took and the state the
    # failed step left, so the next solves replay the steps below their
    # horizon, and a solve past the jump fails with scipy's message again
    points = []

    def fn(t):
        points.append(t)
        return 1.0 if t < 1.0 else 1e300

    G = GrowthFunction("jump", fn, np.zeros_like)
    with pytest.raises(ValueError, match="integrator failed"):
        comparison._integrate(G, 2.0)
    for horizon in (0.9, 0.5):
        oracle = _scipy_solve(G, horizon)
        points.clear()
        _assert_steps_equal(comparison._integrate(G, horizon), oracle)
        # G(0), the solver's constructor and the one attempt the horizon
        # clips
        assert len(points) - 1 == 2 + 6, horizon
    with np.errstate(over="ignore", invalid="ignore"):
        oracle = _scipy_solve(G, 3.0)
    with pytest.raises(ValueError) as refused:
        comparison._integrate(G, 3.0)
    assert str(refused.value) == ("comparison integrator failed: "
                                  + oracle.message)
    assert len(G._memo["rk45"].steps) == len(oracle.sol.interpolants)


def test_a_new_instance_never_replays():
    # the steps belong to one instance: the same registered growth built
    # again, or a replaced copy, integrates from scratch
    G = builtin_growth("quadratic")
    stored = {id(Q) for _, _, Q, _ in comparison._integrate(G, 6.0).steps}
    oracle = _scipy_solve(G, 3.0)

    def replayed(H):
        run = comparison._integrate(H, 3.0)
        _assert_steps_equal(run, oracle)
        return sum(id(Q) in stored for _, _, Q, _ in run.steps)

    assert replayed(builtin_growth("quadratic")) == 0
    assert replayed(dataclasses.replace(G)) == 0
    assert replayed(G) >= len(oracle.sol.interpolants) - 2


def test_the_stored_steps_are_freed_with_their_growth():
    # the solver and its right-hand side form a reference cycle; it must
    # not hold G, whose stored steps would then wait for a full collection
    gc.disable()
    try:
        G = builtin_growth("quadratic")
        solve_comparison(G, 3.0)
        assert G._memo
        held = weakref.ref(G)
        del G
        assert held() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["one", "quadratic"])
def test_hessian_check_evaluates_only_the_restarted_steps(name):
    # the comparison subcommand solves to T and then, in the Hessian
    # check, to the model radius R < T: the second solve replays the
    # steps below R and recomputes only those from the first step that R
    # clips
    model = builtin_model("hyperbolic")
    G, points = _counted(name)
    solve_comparison(G, 6.0)
    long, short = _scipy_solve(G, 6.0), _scipy_solve(G, model.R)
    shared = 0
    for a, b in zip(long.sol.interpolants, short.sol.interpolants):
        if not (a.t == b.t and np.array_equal(a.Q, b.Q)):
            break
        shared += 1
    restarted = len(short.sol.interpolants) - shared
    assert 1 <= restarted <= 2
    points.clear()
    report = hessian_comparison_check(model, G)
    assert report["slope_comparison_holds"]
    assert len(points) == 1 + 2 + 6 * restarted < short.nfev


def test_solver_input_validation():
    with pytest.raises(ValueError, match="T > 0"):
        solve_comparison(builtin_growth("one"), T=-1.0)
    # a NaN or infinite horizon is refused by both entry points
    for T in (math.nan, math.inf):
        for entry in (solve_comparison, check_growth_conditions):
            with pytest.raises(ValueError, match="need a finite T > 0"):
                entry(builtin_growth("one"), T)
    bad = GrowthFunction(
        "neg", lambda t: -np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    with pytest.raises(ValueError, match="positive"):
        solve_comparison(bad, T=1.0)
    # a NaN or infinite G(0) is refused too, not integrated forever
    for level in (math.nan, math.inf):
        flat = GrowthFunction(
            "const", lambda t, lv=level: np.full_like(
                np.asarray(t, dtype=float), lv),
            lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        with pytest.raises(ValueError, match="positive and finite"):
            solve_comparison(flat, T=1.0)
    # exp(t^2) outgrows what RK45 can follow long before t = 40
    with pytest.raises(ValueError, match="integrator failed"):
        solve_comparison(builtin_growth("exp-square"), T=40.0)


# ---------------------------------------------------------------------------
# radial models and the Hessian comparison
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError, match="f\\(0\\) = 0"):
        RadialModel(m=2, f=np.cosh, df=np.sinh, d2f=np.cosh, R=2.0)
    with pytest.raises(ValueError, match="dimension"):
        RadialModel(m=1, f=np.sinh, df=np.cosh, d2f=np.sinh, R=2.0)
    with pytest.raises(KeyError, match="registered"):
        builtin_model("euclidean")
    # sinh overflows on (0, R]
    for name, R in (("hyperbolic", 800.0), ("stretched", 400.0)):
        with pytest.raises(ValueError, match="overflow"):
            builtin_model(name, R=R)


def test_hessian_comparison_equality_case():
    # hyperbolic model against G = 1 is the equality case of the
    # comparison: f'/f = coth = phi'/phi
    rep = hessian_comparison_check(builtin_model("hyperbolic"),
                                   builtin_growth("one"))
    assert rep["applicable"]
    assert rep["slope_comparison_holds"]
    assert rep["equality_gap_max"] <= 1e-6
    assert rep["hessian_constant"] > 0.0


def test_hessian_comparison_strict_case():
    # flat model under G = 1: coth(r) - 1/r > 0 strictly
    rep = hessian_comparison_check(builtin_model("flat"),
                                   builtin_growth("one"))
    assert rep["applicable"]
    assert rep["slope_comparison_holds"]
    assert rep["slope_margin_min"] > 1e-4


@pytest.mark.parametrize("name, R", [("hyperbolic", 1e-6), ("flat", 1e-8)])
def test_hessian_comparison_holds_at_small_radii(name, R):
    # near r = 0 both slopes are about 1/r and round to a few ulps of it:
    # the margin reads below -1e-8 but within the gate scaled by the slopes
    rep = hessian_comparison_check(builtin_model(name, R=R),
                                   builtin_growth("one"))
    assert rep["slope_margin_min"] < -1e-8
    assert rep["slope_comparison_holds"]


def test_hessian_comparison_fails_a_slope_above_phis():
    # f'/f = coth r + 1e-6 exceeds phi'/phi = coth r wherever the scaled
    # slack 1e-8 coth r is below 1e-6, so for r > 0.01
    model = RadialModel(m=2, f=np.sinh,
                        df=lambda r: np.cosh(r) + 1e-6 * np.sinh(r),
                        d2f=np.sinh, R=3.0)
    rep = hessian_comparison_check(model, builtin_growth("one"))
    assert rep["applicable"]
    assert not rep["slope_comparison_holds"]


def test_hessian_comparison_rejects_undershooting_bound():
    # stretched model has curvature -4; G = 1 does not dominate it
    rep = hessian_comparison_check(builtin_model("stretched"),
                                   builtin_growth("one"))
    assert rep["applicable"] is False
    assert rep["violating_radius"] is not None
    assert rep["curvature_margin_min"] < -1.0


# ---------------------------------------------------------------------------
# sequence probe
# ---------------------------------------------------------------------------

def test_default_growth_dominates_model():
    assert default_growth_for(builtin_model("hyperbolic")).name == "const-1"
    assert default_growth_for(builtin_model("flat")).name == "const-1"
    assert "4" in default_growth_for(builtin_model("stretched")).name


def test_probe_tanh_frozen_maximizers():
    # maximizers of (tanh r - tanh(r*) + 1) e^{-r^2/j} on the hyperbolic
    # model, computed independently from the closed forms and frozen
    probe = omori_yau_probe(builtin_model("hyperbolic"), np.tanh, jmax=20)
    assert probe.growth_name == "const-1"
    assert not probe.boundary_flag
    radii = {rec["j"]: rec["radius"] for rec in probe.records}
    assert abs(radii[1] - 0.62245) <= 1e-3
    assert abs(radii[2] - 0.81284) <= 1e-3
    assert abs(radii[3] - 0.93700) <= 1e-3
    assert abs(radii[20] - 1.60580) <= 1e-3
    lus = {rec["j"]: rec["Lu"] for rec in probe.records}
    assert abs(lus[1] - 0.4883) <= 1e-3
    assert abs(lus[2] - 0.0812) <= 1e-3
    assert abs(lus[3] - (-0.0484)) <= 1e-3


def test_probe_sequence_trends():
    probe = omori_yau_probe(builtin_model("hyperbolic"), np.tanh, jmax=20)
    gaps = [rec["gap"] for rec in probe.records]
    grads = [rec["grad_norm"] for rec in probe.records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(grads, grads[1:]))
    assert probe.trends["gap_nonincreasing"]
    assert probe.trends["grad_nonincreasing"]
    for rec in probe.records:
        assert rec["Lu"] < 1.0 / rec["j"]


def test_probe_selector_pair_matches_laplacian():
    model = builtin_model("hyperbolic")
    a = omori_yau_probe(model, np.tanh, L="laplacian", jmax=5)
    b = omori_yau_probe(model, np.tanh, L=(1.0, 1.0), jmax=5)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    for selector in ((-1.0, 1.0), (1.0, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            omori_yau_probe(model, np.tanh, L=selector, jmax=2)
    with pytest.raises(ValueError, match="selector"):
        omori_yau_probe(model, np.tanh, L="heat", jmax=2)


def test_probe_constant_height():
    probe = omori_yau_probe(builtin_model("flat"),
                            lambda r: 0.5 + 0.0 * np.asarray(r), jmax=5)
    for rec in probe.records:
        assert rec["gap"] <= 1e-12
        assert rec["grad_norm"] <= 1e-8


def test_probe_interior_bump_collapses():
    u = lambda r: np.exp(-(np.asarray(r, dtype=float) - 1.0) ** 2 / 0.1)
    probe = omori_yau_probe(builtin_model("hyperbolic"), u, jmax=15)
    assert not probe.boundary_flag
    last = probe.records[-1]
    assert abs(last["radius"] - 1.0) <= 0.05
    assert last["gap"] <= probe.records[0]["gap"]


def test_probe_penalization_pulls_linear_height_inside():
    # u = r rises toward the boundary, but the penalization wins: the
    # j = 1 maximizer of (r - 2) e^{-r^2} sits at (2 + sqrt 6)/2
    probe = omori_yau_probe(builtin_model("flat"),
                            lambda r: np.asarray(r, dtype=float), jmax=3)
    assert not probe.boundary_flag
    expect = (2.0 + math.sqrt(6.0)) / 2.0
    assert abs(probe.records[0]["radius"] - expect) <= 1e-4


def test_probe_penalization_reads_the_envelope_of_its_growth():
    # the stretched model's default growth is G = 4, whose envelope is
    # exp(r^2 / 2), not the exp(2 r^2) of the integral of sqrt(G): the
    # j = 1 maximizer of (r - 2) e^{-r^2/2} sits at 1 + sqrt 2
    probe = omori_yau_probe(builtin_model("stretched"),
                            lambda r: np.asarray(r, dtype=float), jmax=1)
    assert probe.growth_name == "const-4"
    assert abs(probe.records[0]["radius"] - (1.0 + math.sqrt(2.0))) <= 1e-4


def test_probe_boundary_flag_for_runaway_height():
    # growth faster than the penalization pushes the argmax to the
    # last grid node, which must be flagged
    probe = omori_yau_probe(builtin_model("flat"),
                            lambda r: np.exp(np.asarray(r, dtype=float) ** 2),
                            jmax=3)
    assert probe.boundary_flag


def test_probe_is_deterministic():
    model = builtin_model("hyperbolic")
    a = omori_yau_probe(model, np.tanh, jmax=8)
    b = omori_yau_probe(model, np.tanh, jmax=8)
    assert a.records == b.records
    assert a.trends == b.trends


# ---------------------------------------------------------------------------
# golden-section search
# ---------------------------------------------------------------------------

def _golden_max_at_every_point(fn, a, b):
    """golden_max without its memo: ``fn`` at each of the 82 points."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(80):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _repeats_skipped(fn, a, b):
    """Checks that golden_max calls ``fn`` once at each point the loop
    without the memo visits, and returns the same float; returns how
    many of that loop's calls repeat a point."""
    calls, visits = [], []
    got = golden_max(lambda t: calls.append(t) or fn(t), a, b)
    want = _golden_max_at_every_point(lambda t: visits.append(t) or fn(t),
                                      a, b)
    assert got == want
    assert len(calls) == len(set(calls))
    assert set(calls) == set(visits)
    return len(visits) - len(calls)


def test_golden_max_evaluates_each_probe_point_once(monkeypatch):
    # the probe's fj_cont for j = 1..20, checked as each search runs
    repeats = []

    def checked(fn, a, b):
        repeats.append(_repeats_skipped(fn, a, b))
        return golden_max(fn, a, b)

    monkeypatch.setattr(comparison, "golden_max", checked)
    omori_yau_probe(builtin_model("hyperbolic"), np.tanh, jmax=20)
    assert len(repeats) == 20
    # the bracket shrinks to a few ulps, where points repeat
    assert sum(repeats) > 0


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_golden_max_evaluates_each_profile_point_once(monkeypatch, profile):
    searches = []

    def checked(fn, a, b):
        searches.append(_repeats_skipped(fn, a, b))
        return golden_max(fn, a, b)

    monkeypatch.setattr(ambient, "golden_max", checked)
    ambient.profile_summary(make_product(profile))
    assert len(searches) == 1


@pytest.mark.parametrize("fn", [lambda t: min(t, 0.5), lambda t: 1.0],
                         ids=["plateau", "constant"])
def test_golden_max_on_ties(fn):
    # every comparison past the plateau's edge is a tie
    _repeats_skipped(fn, 0.0, 1.0)
