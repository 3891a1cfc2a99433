"""Radial comparison machinery: ODE pair, growth admissibility, models,
and the maximum-principle sequence probe.

Closed-form oracles: G = 1 gives phi = sinh, psi = e^t - 1, envelope e^t;
G = 4 gives phi = sinh(2t)/2.
"""

import math

import numpy as np
import pytest

from warpcurv.comparison import (
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


def test_envelope_log_slope():
    sol = solve_comparison(builtin_growth("quadratic"), T=5.0)
    ts = np.array([0.5, 1.0, 3.0])
    assert np.allclose(sol.envelope_log_slope(ts),
                       1.0 / np.sqrt(1.0 + ts ** 2), atol=1e-12)


def test_solver_input_validation():
    with pytest.raises(ValueError, match="T > 0"):
        solve_comparison(builtin_growth("one"), T=-1.0)
    bad = GrowthFunction(
        "neg", lambda t: -np.ones_like(np.asarray(t, dtype=float)),
        lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    with pytest.raises(ValueError, match="positive"):
        solve_comparison(bad, T=1.0)
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
