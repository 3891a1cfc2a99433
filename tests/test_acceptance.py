"""Acceptance gate: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line (visible with -s, and
in the captured output on failure) and enforces the stated tolerance and
runtime budget.  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from helpers import make_product, random_immersion, slice_immersion
from warpcurv import operators
from warpcurv.ambient import PROFILES, ambient_curvature, warping_eval
from warpcurv.cli import main as cli_main
from warpcurv.comparison import builtin_growth, builtin_model, omori_yau_probe, solve_comparison
from warpcurv.hypersurface import DiscretizationConfig, evaluate_geometry
from warpcurv.scenarios import (
    VERDICT_CONCLUSION,
    VERDICT_CONSISTENT,
    curvature_estimate_scenario,
)
from warpcurv.symfun import bk_telescope, newton_family, trace_and_norm_identities


def _passed(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


# ---------------------------------------------------------------------------
# criterion 1: algebraic suite
# ---------------------------------------------------------------------------

def _partial_esym(lam_wo_i: np.ndarray, k: int) -> float:
    # e_k of the remaining eigenvalues, via monic polynomial coefficients
    coeffs = np.poly(lam_wo_i)
    return float((-1.0) ** k * coeffs[k]) if k < coeffs.size else 0.0


def test_c1_algebraic_suite_1000_matrices():
    """1000 random symmetric matrices, n <= 6: trace identities,
    |A|^2 = n^2 H_1^2 - n(n-1) H_2, telescoping, and the Newton recursion
    all hold to 1e-10 relative, in under 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        M = rng.normal(size=(n, n))
        A = 0.5 * (M + M.T)

        rep = trace_and_norm_identities(A)
        assert rep["passed"], rep
        worst = max(worst, rep["max_residual"] / rep["scale"])

        fam = newton_family(A)
        lam, Q = np.linalg.eigh(A)
        scale = (1.0 + float(np.max(np.abs(lam)))) ** n

        # recursion, checked against the spectral characterization:
        # P_k is diagonal in the eigenbasis with entries e_k(lambda \ i)
        for k in range(1, n):
            diag = [_partial_esym(np.delete(lam, i), k) for i in range(n)]
            spectral = Q @ np.diag(diag) @ Q.T
            res = float(np.max(np.abs(fam.P[k] - spectral))) / scale
            assert res <= 1e-10, (k, res)
            worst = max(worst, res)

        for k in range(1, n):
            res = bk_telescope(A, k) / scale
            assert res <= 1e-10, (k, res)
            worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _passed(1, f"worst relative residual {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: slice exactness for every built-in profile
# ---------------------------------------------------------------------------

SLICE_T = {"exp": 0.5, "cosh": 0.7, "linear": 2.0, "const": 0.3, "sin": 0.8}


def test_c2_slice_exactness_per_profile():
    """Slices of every registered profile reproduce H_k = speed^k and
    Theta = -1, and every operator identity vanishes, all to 1e-10."""
    assert set(SLICE_T) == set(PROFILES)
    tol = 1e-10
    worst = 0.0
    for name in sorted(PROFILES):
        t = SLICE_T[name]
        W = make_product(name, "flat-torus", 2, 0.0)
        imm = slice_immersion(W, t)
        geom = evaluate_geometry(imm)
        hcal = float(W.profile.hcal(t))

        residuals = [np.max(np.abs(geom.theta + 1.0))]
        for k in (1, 2):
            residuals.append(np.max(np.abs(geom.H[..., k] - hcal ** k)))
        for k in (0, 1):
            out = operators.height_sigma_identities(imm, k, geom=geom)
            residuals.extend(v.max for v in out.values())
        dp = operators.div_pk(imm, 1, geom=geom)
        residuals.extend(dp[key].max for key in
                         ("residual_ab", "residual_ac", "residual_bc"))
        cal = operators.calligraphic_ops(imm, 2, geom=geom)
        residuals.append(cal["sigma_identity"].max)
        residuals.append(cal["sigma_identity_algebraic"].max)
        for k in (1, 2):
            fr = operators.frak_phi(imm, k, geom=geom)
            if fr.get("applicable"):
                residuals.append(fr["residual"].max)
            else:
                # degenerate profile (vanishing speed): the operator
                # declines the positivity normalization, and the identity
                # collapses to the divergence-form operator annihilating
                # the constant rho * Theta
                assert abs(hcal) <= 1e-12
                field = operators.frak_apply(geom, 1, geom.rho * geom.theta)
                residuals.append(np.max(np.abs(field[geom.interior])))
        peak = float(max(residuals))
        assert peak <= tol, (name, peak)
        worst = max(worst, peak)
    _passed(2, f"{len(PROFILES)} profiles, worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: convergence suite
# ---------------------------------------------------------------------------

CONVERGENCE_GRAPHS = (
    # (profile, chart, kappa, seed, t_center, amplitude)
    ("exp", "flat-torus", 0.0, 21, 0.0, 0.12),
    ("cosh", "flat-torus", 0.0, 21, 0.7, 0.12),
    ("exp", "round-sphere", 1.0, 5, 0.0, 0.05),
    ("cosh", "round-sphere", 1.0, 5, 0.7, 0.05),
    ("exp", "flat-torus", 0.0, 34, 0.4, 0.12),
)


def _identity_residual_grids(geom, k=1):
    from warpcurv.hypersurface import structure_identities

    imm = geom.imm
    out = {"height-hessian": structure_identities(geom)["height-hessian"]["grid"]}
    hs = operators.height_sigma_identities(imm, k, geom=geom)
    out["height"] = hs["height"].grid
    out["sigma"] = hs["sigma"].grid
    out["div-newton"] = operators.div_pk(imm, k, geom=geom)["residual_ab"].grid
    out["theta-hat"] = operators.theta_hat_identity(imm, k,
                                                    geom=geom)["operator"].grid
    fr = operators.frak_phi(imm, k, geom=geom)
    assert fr.get("applicable"), "acceptance graph left the positive regime"
    out["four-term"] = fr["residual"].grid
    return out


def test_c3_convergence_on_random_graphs():
    """Five random graphs across torus and sphere fibers with exp/cosh
    warpings: six differenced identities converge at Richardson slope
    >= 1.9 over three dyadic levels from a 32^2 base, within 5 minutes."""
    t0 = time.perf_counter()
    cfg = DiscretizationConfig(order=2, refine_levels=3)
    slopes = {}
    for profile, chart, kappa, seed, t_center, amplitude in CONVERGENCE_GRAPHS:
        W = make_product(profile, chart, 2, kappa)
        imm = random_immersion(W, seed=seed, t_center=t_center,
                               amplitude=amplitude, res=32)
        studies = operators.convergence_study(imm, cfg,
                                              _identity_residual_grids)
        for ident, study in studies.items():
            slope = study["slope"]
            label = f"{profile}/{chart}/seed{seed}/{ident}"
            assert slope is not None and slope >= 1.9, (label, study)
            slopes[label] = slope
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _passed(3, f"{len(slopes)} slopes, min {min(slopes.values()):.3f}, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: ambient curvature suite
# ---------------------------------------------------------------------------

def _ambient_inner(rho2, u, v):
    return u[0] * v[0] + rho2 * float(np.dot(u[1:], v[1:]))


def _orthonormal_pair(rng, rho2, n):
    while True:
        u = rng.normal(size=n + 1)
        v = rng.normal(size=n + 1)
        u = u / math.sqrt(_ambient_inner(rho2, u, u))
        v = v - _ambient_inner(rho2, u, v) * u
        nv = _ambient_inner(rho2, v, v)
        if nv > 1e-6:
            return u, v / math.sqrt(nv)


def test_c4_ambient_curvature_suite():
    """exp warping over a flat fiber has sectional curvature -1 and the
    linear warping over the unit sphere is flat, each on 100 random
    orthonormal pairs; tensor symmetries and the first Bianchi identity
    hold on random vectors.  All to 1e-10."""
    cases = [("exp", "flat-torus", 0.0, -1.0, (-2.0, 2.0)),
             ("linear", "round-sphere", 1.0, 0.0, (0.5, 8.0))]
    worst = 0.0
    for name, chart, kappa, K_expected, (lo, hi) in cases:
        W = make_product(name, chart, 2, kappa)
        rng = np.random.default_rng(46)
        for _ in range(100):
            t = rng.uniform(lo, hi)
            rho2 = float(warping_eval(W, t).rho) ** 2
            u, v = _orthonormal_pair(rng, rho2, 2)
            K = ambient_curvature(W, t, u, v, mode="sectional")
            assert abs(K - K_expected) <= 1e-10
            worst = max(worst, abs(K - K_expected))

        for _ in range(50):
            t = rng.uniform(lo, hi)
            rho2 = float(warping_eval(W, t).rho) ** 2
            u, v, w, z = (rng.normal(size=3) for _ in range(4))
            scale = max(1.0, max(float(np.max(np.abs(x)))
                                 for x in (u, v, w, z)) ** 4)
            R = lambda a, b, c: ambient_curvature(W, t, a, b, c, mode="tensor")
            anti = np.max(np.abs(R(u, v, w) + R(v, u, w)))
            pair = abs(_ambient_inner(rho2, R(u, v, w), z)
                       - _ambient_inner(rho2, R(w, z, u), v))
            bianchi = np.max(np.abs(R(u, v, w) + R(v, w, u) + R(w, u, v)))
            for res in (anti, pair, bianchi):
                assert res <= 1e-10 * scale
                worst = max(worst, res / scale)
    _passed(4, f"two model ambients, worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: comparison suite
# ---------------------------------------------------------------------------

def test_c5_comparison_suite():
    """Unit growth reproduces sinh to 1e-8 relative on [0, 10]; the Sturm
    slope inequality holds at every grid point for both growth bounds;
    the slope-squared-minus-curvature quantity stays >= -1e-8."""
    T = 10.0
    sol_one = solve_comparison(builtin_growth("one"), T)
    ts = sol_one.ts[1:]
    rel = float(np.max(np.abs(sol_one.phi[1:] - np.sinh(ts)) / np.sinh(ts)))
    assert rel <= 1e-8

    sturm_margins = []
    for growth in ("one", "quadratic"):
        sol = solve_comparison(builtin_growth(growth), T)
        mask = sol.ts > 0.0
        margin = (sol.dpsi[mask] / sol.psi[mask]
                  - sol.dphi[mask] / sol.phi[mask])
        sturm_margins.append(float(np.min(margin)))
        assert sol.report["sturm_holds"]
        assert float(np.min(margin)) >= -1e-10
        # the nonnegativity of (X'/X)^2 - X''/X is exact for the envelope
        # that integrates the growth bound; for the ODE solution itself it
        # is a constant-growth fact (the log-slope of phi approaches
        # sqrt(G) from below when G grows)
        assert sol.report["envelope_identity_nonneg"]
    assert sol_one.report["riccati_min"] >= -1e-8
    _passed(5, f"sinh relative error {rel:.2e}, Sturm margins "
               f"{min(sturm_margins):.2e}")


# ---------------------------------------------------------------------------
# criterion 6: penalized-maximizer probe
# ---------------------------------------------------------------------------

def test_c6_maximum_principle_probe():
    """On the sinh-warped model with u = tanh r, twenty penalization
    levels produce strictly decreasing gaps and gradient norms with
    Lu(p_j) < 1/j, in under 10 s."""
    t0 = time.perf_counter()
    probe = omori_yau_probe(builtin_model("hyperbolic"), np.tanh, jmax=20)
    assert not probe.boundary_flag
    assert len(probe.records) == 20
    gaps = [rec["gap"] for rec in probe.records]
    grads = [rec["grad_norm"] for rec in probe.records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(grads, grads[1:]))
    for rec in probe.records:
        assert rec["Lu"] < 1.0 / rec["j"], rec
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _passed(6, f"20 levels, final gap {gaps[-1]:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 7: curvature-estimate audit battery
# ---------------------------------------------------------------------------

def test_c7_curvature_estimate_battery():
    """100 random compact graphs over the exp warping: sup|H_1| >= 1-1e-8
    always; on the everywhere-positive-H_2 subset, sup H_2^(1/2) >= 1-1e-8;
    on the elliptic-point-certified convex subset, sup H_3^(1/3) >= 1-1e-8.
    No conclusion is violated anywhere in the battery."""
    W = make_product("exp", "flat-torus", 3, 0.0)
    master = np.random.default_rng(2026)
    amplitudes = master.uniform(0.05, 0.3, size=100)
    consistent = {1: 0, 2: 0, 3: 0}
    worst_sup = {1: np.inf, 2: np.inf, 3: np.inf}
    violations = []
    for seed in range(100):
        imm = random_immersion(W, seed=seed, t_center=0.0,
                               amplitude=float(amplitudes[seed]), res=12)
        for order in (1, 2, 3):
            rep = curvature_estimate_scenario(imm, W, order)
            if rep.verdict == VERDICT_CONCLUSION:
                violations.append((seed, order, dataclasses.asdict(rep)))
            elif rep.verdict == VERDICT_CONSISTENT:
                consistent[order] += 1
                sup = rep.residuals["sup_curvature"]
                assert sup >= 1.0 - 1e-8, (seed, order, sup)
                worst_sup[order] = min(worst_sup[order], sup)
    assert not violations, violations[:3]
    assert consistent[1] == 100  # the first-order bound needs no extra
    assert consistent[2] > 0     # positivity hypothesis
    assert consistent[3] > 0
    _passed(7, "orders 1/2/3 consistent on "
               f"{consistent[1]}/{consistent[2]}/{consistent[3]} graphs, "
               f"worst sups {worst_sup[1]:.4f}/{worst_sup[2]:.4f}/"
               f"{worst_sup[3]:.4f}, zero conclusion violations")


# ---------------------------------------------------------------------------
# criterion 8: deterministic report trees
# ---------------------------------------------------------------------------

BATTERY = {
    "verify": {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "random", "t_center": 0.7,
                      "amplitude": 0.1, "resolution": 24},
        "seed": 17,
        "operations": [{"op": "structure", "tol": 1e-3},
                       {"op": "height-sigma", "k": 1, "tol": 1e-2},
                       {"op": "div-newton", "k": 1, "tol": 1e-1}],
    },
    "scenario": {
        "ambient": {"profile": "cosh", "chart": "flat-torus", "n": 2},
        "immersion": {"family": "slice", "t": 0.7, "resolution": 20},
        "seed": 17,
        "operations": [
            {"op": "theorem-audit", "id": "compact-constant-h2"},
            {"op": "curvature-estimate", "order": 2},
            {"op": "elliptic-signs"},
            {"op": "parabolicity", "model": "flat", "H": 1.0, "k": 1},
        ],
    },
    "probe": {"model": "hyperbolic", "height": {"family": "tanh"},
              "jmax": 20, "seed": 17},
    "comparison": {"growth": "quadratic", "T": 6.0,
                   "model": "hyperbolic", "seed": 17},
}


def _run_battery(root):
    exits = {}
    for sub, config in BATTERY.items():
        cfg_path = os.path.join(root, f"{sub}.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(root, sub)
        exits[sub] = cli_main([sub, "--config", cfg_path, "--out", out])
    return exits


def _collect(root):
    found = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in filenames:
            if not (fn.endswith(".json") or fn.endswith(".tsv")):
                continue
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, root)] = fh.read()
    return found


def test_c8_deterministic_report_trees(tmp_path):
    """Two consecutive same-seed report batteries across all four
    subcommands produce byte-identical trees, and none reports a
    violation."""
    run_a, run_b = str(tmp_path / "run-a"), str(tmp_path / "run-b")
    os.makedirs(run_a)
    os.makedirs(run_b)
    exits_a = _run_battery(run_a)
    exits_b = _run_battery(run_b)
    assert exits_a == exits_b
    assert all(code == 0 for code in exits_a.values()), exits_a

    tree_a, tree_b = _collect(run_a), _collect(run_b)
    assert sorted(tree_a) == sorted(tree_b)
    mismatched = [name for name in tree_a if tree_a[name] != tree_b[name]]
    assert not mismatched, mismatched
    _passed(8, f"{len(tree_a)} report files byte-identical across reruns")
