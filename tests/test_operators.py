"""Operator layer: trace-form and divergence-form operators and the
curvature identities relating them.

Route discipline: *_algebraic residuals pit two closed forms against each
other and must sit at rounding level on any grid; differenced residuals
are checked on slices (where they are exact) and under refinement
elsewhere.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import CHART, make_product, random_immersion, slice_immersion
from warpcurv import ambient, cli, operators, symfun
from warpcurv._grid import hessian
from warpcurv.hypersurface import (DiscretizationConfig, GraphImmersion,
                                   evaluate_geometry, structure_identities)
from warpcurv.operators import (
    calligraphic_ops,
    convergence_study,
    div_pk,
    frak_apply,
    frak_phi,
    height_sigma_identities,
    laplace_beltrami,
    lk_apply,
    theta_hat_identity,
)

SLICE_CASES = [
    ("cosh", "flat-torus", 0.0, 0.7),
    ("linear", "round-sphere", 1.0, 2.0),
    ("cosh", "hyperbolic", -1.0, 0.7),
]


@pytest.mark.parametrize("profile,fiber,kappa,t", SLICE_CASES)
def test_slice_operator_identities_exact(profile, fiber, kappa, t):
    W = make_product(profile, CHART[fiber], 2, kappa)
    imm = slice_immersion(W, t)
    geom = evaluate_geometry(imm)
    for k in range(2):
        hs = height_sigma_identities(imm, k, geom=geom)
        for name, rec in hs.items():
            assert rec.max <= 1e-11, (k, name)
        th = theta_hat_identity(imm, k, geom=geom)
        for key in ("gradient", "operator", "beta_routes", "general_vs_constant"):
            assert th[key].max <= 1e-11, (k, key)
    dp = div_pk(imm, 1, geom=geom)
    for key in ("residual_ab", "residual_ac", "residual_bc"):
        assert dp[key].max <= 1e-11, key
    cal = calligraphic_ops(imm, 2, geom=geom)
    assert cal["sigma_identity_algebraic"].max <= 1e-11
    assert cal["sigma_identity"].max <= 1e-11
    assert cal["implication_respected"]


def test_slice_calligraphic_sign_structure():
    # positive slice of cosh: Theta = -1, hcal > 0, Newton tensors definite
    W = make_product("cosh", "flat-torus", 2, 0.0)
    cal = calligraphic_ops(slice_immersion(W, 0.7), 2)
    assert cal["sign_hypotheses_hold"]
    assert cal["semidefinite"]
    assert cal["min_eigenvalue"] > 0.0


def _curvature_trace_residual(geom, j, w):
    """sum_i <R(E_i, Y)N, P_j E_i> minus its closed form
    Theta (kappa/rho^2 + hcal') (<P_j grad h, Y> - c_j H_j <grad h, Y>),
    for Y = w in frame components: one kernel call per frame vector E_i,
    paired with P_j E_i in the ambient metric."""
    kappa = geom.imm.W.fiber.kappa
    P = geom.newton_tensor(j)

    def amb(v):
        return geom.ambient_components(geom.frame_vector_to_chart(v))

    def inner(U, V):
        return U[..., 0] * V[..., 0] + geom.rho ** 2 * np.einsum(
            "...i,...ij,...j->...", U[..., 1:], geom.ghat, V[..., 1:])

    Y = amb(w)
    lhs = sum(inner(ambient.curvature_tensor_components(
        kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat,
        amb(np.broadcast_to(e, w.shape)), Y, geom.normal),
        amb(P[..., :, i])) for i, e in enumerate(np.eye(geom.n)))
    coef = geom.theta * (kappa / geom.rho ** 2 + geom.dhcal)
    Pa = np.einsum("...ij,...j->...i", P, geom.a)
    return lhs - coef * np.einsum(
        "...i,...i->...", Pa - geom.c[j] * geom.H[..., j, None] * geom.a, w)


# the curved fibers give theta_hat_identity's general-fiber route a
# nonzero beta term, which a flat fiber multiplies by kappa = 0
@pytest.mark.parametrize("profile,fiber,kappa,seed", [
    ("cosh", "flat-torus", 0.0, 1),
    ("cosh", "flat-torus", 0.0, 2),
    ("cosh", "flat-torus", 0.0, 3),
    ("exp", "round-sphere", 1.0, 4),
    ("cosh", "hyperbolic", -1.0, 5),
], ids=["1", "2", "3", "exp-round-sphere", "cosh-hyperbolic"])
def test_algebraic_routes_on_random_graphs(profile, fiber, kappa, seed):
    W = make_product(profile, CHART[fiber], 2, kappa)
    imm = random_immersion(W, seed=seed, t_center=0.4, amplitude=0.15)
    geom = evaluate_geometry(imm)

    hs = height_sigma_identities(imm, 1, geom=geom)
    assert hs["height_algebraic"].max <= 1e-10
    assert hs["sigma_algebraic"].max <= 1e-10

    dp = div_pk(imm, 1, geom=geom)
    assert dp["residual_bc"].max <= 1e-10

    th = theta_hat_identity(imm, 1, geom=geom)
    assert th["beta_routes"].max <= 1e-10
    assert th["general_vs_constant"].max <= 1e-10

    cal = calligraphic_ops(imm, 2, geom=geom)
    assert cal["sigma_identity_algebraic"].max <= 1e-10

    rng = np.random.default_rng(seed)
    w = np.broadcast_to(rng.normal(size=2), geom.a.shape)
    for j in range(2):
        residual = _curvature_trace_residual(geom, j, w)
        assert np.max(np.abs(residual[geom.interior])) <= 1e-10


def test_div_pk_maxima_survive_a_whole_cell_roll():
    # a flat torus has no preferred origin: rolling the height array by
    # whole cells moves every node's stencil values along with it, so the
    # residual maxima of all three routes are unchanged bit for bit
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=21, t_center=0.5, amplitude=0.15, res=16)
    rolled = GraphImmersion(W=W, u=np.roll(imm.u, (3, 5, 7), axis=(0, 1, 2)),
                            box=imm.box, periodic=imm.periodic)
    keys = ("residual_ab", "residual_ac", "residual_bc")
    before, after = div_pk(imm, 2), div_pk(rolled, 2)
    assert [before[key].max for key in keys] == \
        [after[key].max for key in keys]
    assert before["residual_ab"].max > 0.0


def test_swapping_two_grid_axes_swaps_every_frame_free_result():
    # on a cubic flat torus, transposing grid axes 0 and 1 of u is an
    # isometry of the chart, so each scalar result is transposed with it,
    # and a chart tensor also swaps its components 0 and 1.  The Cholesky
    # frame is not equivariant, so only rounding may differ; a slip that
    # mixes a frame index with a chart index would not cancel this way.
    # Residual grids are differences of O(1) route values, which set the
    # scale
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=7, t_center=0.7, amplitude=0.15, res=12)
    swapped = GraphImmersion(W=W, u=np.swapaxes(imm.u, 0, 1).copy(),
                             box=imm.box, periodic=imm.periodic)
    geom, geom_s = evaluate_geometry(imm), evaluate_geometry(swapped)
    perm = [1, 0, 2]

    def check(name, grid, grid_s, tensor_rank=0):
        expected = np.swapaxes(grid, 0, 1)
        for axis in range(-tensor_rank, 0):
            expected = np.take(expected, perm, axis=axis)
        scale = max(1.0, float(np.max(np.abs(grid))))
        assert np.max(np.abs(grid_s - expected)) <= 1e-12 * scale, name

    check("H", geom.H, geom_s.H)
    check("theta", geom.theta, geom_s.theta)
    for k in (1, 2):
        for key, r in height_sigma_identities(None, k, geom=geom).items():
            check(f"height-sigma {k} {key}", r.grid, height_sigma_identities(
                None, k, geom=geom_s)[key].grid)
        th, th_s = (theta_hat_identity(None, k, geom=g) for g in (geom, geom_s))
        for key in ("operator", "beta_routes", "general_vs_constant"):
            check(f"theta-hat {k} {key}", th[key].grid, th_s[key].grid)
        # the last test vector is grad h, which no frame choice changes
        dp, dp_s = (div_pk(None, k, geom=g) for g in (geom, geom_s))
        for key, r in dp.items():
            check(f"div-newton {k} {key}", r.grid[..., -1],
                  dp_s[key].grid[..., -1])
    for k in (2, 3):
        cal, cal_s = (calligraphic_ops(None, k, geom=g) for g in (geom, geom_s))
        for key in ("sigma_identity_algebraic", "sigma_identity"):
            check(f"calligraphic {k} {key}", cal[key].grid, cal_s[key].grid)
    st, st_s = structure_identities(geom), structure_identities(geom_s)
    for key, rank in (("unit-decomposition", 0), ("gradient-decomposition", 1),
                      ("height-hessian", 2), ("sigma-hessian", 2)):
        check(key, st[key]["grid"], st_s[key]["grid"], rank)


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_space_form_identities_converge_at_n3(kappa):
    # a random graph over the three-dimensional sphere and hyperbolic space,
    # 24^3 refined to 47^3: the differenced routes of every k = 2 identity
    # converge at the order-4 stencil's rate
    W = make_product("cosh", "space-form", 3, kappa)
    imm = random_immersion(W, seed=3, t_center=0.6, amplitude=0.1, res=24)

    def residuals(geom):
        hs = height_sigma_identities(geom.imm, 2, geom=geom)
        dp = div_pk(geom.imm, 2, geom=geom)
        th = theta_hat_identity(geom.imm, 2, geom=geom)
        return {"height": hs["height"].grid, "sigma": hs["sigma"].grid,
                "div-ab": dp["residual_ab"].grid,
                "div-ac": dp["residual_ac"].grid,
                "theta-gradient": th["gradient"].grid,
                "theta-operator": th["operator"].grid}

    studies = convergence_study(
        imm, DiscretizationConfig(order=4, refine_levels=2), residuals)
    for name, study in studies.items():
        coarse, fine = study["maxima"]
        assert coarse > 1e-9, name
        assert math.log2(coarse / fine) >= 3.5, (name, coarse, fine)


def test_frak_phi_decides_positivity_on_audited_nodes():
    # next to a non-periodic edge the wrapped stencils leave H_1 meaningless
    # (here negative); those nodes are never audited and must not decide
    W = make_product("exp", "space-form", 2, 1.0)
    imm = random_immersion(W, seed=5, amplitude=0.05, res=32)
    geom = evaluate_geometry(imm, DiscretizationConfig(order=2))
    H1 = geom.H[..., 1]
    assert np.min(H1) < 0.0 < np.min(H1[geom.interior])
    out = frak_phi(imm, 1, geom=geom)
    assert out["applicable"]
    assert out["residual"].max <= 1e-2


def _per_vector_curvature_route(geom, k):
    """Route (c) of div_pk as one kernel call per (test vector, power j,
    frame index i): the loop that the covector pairing replaced."""
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    eye = np.eye(n)
    to_amb = operators._frame_to_ambient
    frame_amb = [to_amb(geom, np.broadcast_to(eye[i], geom.a.shape))
                 for i in range(n)]
    P_amb = [[to_amb(geom, geom.newton_tensor(j)[..., :, i]) for i in range(n)]
             for j in range(k)]
    out = []
    for w in operators.default_test_vectors(geom):
        total = np.zeros(geom.u.shape)
        powers = [w]
        for _ in range(k - 1):
            powers.append(np.einsum("...ij,...j->...i",
                                    geom.shape_frame, powers[-1]))
        for j in range(k):
            Y_amb = to_amb(geom, powers[k - 1 - j])
            sign = (-1.0) ** (k - 1 - j)
            for i in range(n):
                R = ambient.curvature_tensor_components(
                    kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat,
                    frame_amb[i], Y_amb, geom.normal)
                total += sign * operators._ambient_inner(geom, R, P_amb[j][i])
        out.append(total)
    return np.stack(out, axis=-1)


# profiles whose curvature factor kappa/rho^2 + hcal' does not vanish, so
# that route (c) is not rounding noise (cosh over kappa = -1 is hyperbolic
# space, where it does)
ROUTE_C_AMBIENTS = [("cosh", "flat-torus", 0.0), ("cosh", "space-form", 1.0),
                    ("exp", "space-form", -1.0)]


@pytest.mark.parametrize("profile,chart,kappa", ROUTE_C_AMBIENTS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_route_matches_the_per_vector_loop(profile, chart, kappa,
                                                     n):
    W = make_product(profile, chart, n, kappa)
    imm = random_immersion(W, seed=30 + n, t_center=0.6, amplitude=0.15,
                           res=8)
    geom = evaluate_geometry(imm)
    vecs = operators.default_test_vectors(geom)
    for k in range(1, n):
        old = _per_vector_curvature_route(geom, k)
        new = operators._curvature_route(geom, k, vecs)
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), k


@pytest.mark.parametrize("chart,kappa,n", [("flat-torus", 0.0, 3),
                                           ("space-form", -1.0, 4)])
def test_curvature_route_calls_the_kernel_once_per_pair_i_below_a(
        monkeypatch, chart, kappa, n):
    # n(n-1)/2 kernel calls per geometry: R(E_a, E_i) N is read as
    # -R(E_i, E_a) N and R(E_i, E_i) N = 0 is skipped, and every later k
    # on the same geometry reads the memoized vectors; a fresh geometry
    # (a doctored one from dataclasses.replace included) evaluates them
    # again.  One call per ordered pair would make n^2 per div_pk
    kernel = operators.curvature_tensor_components
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(operators, "curvature_tensor_components", counted)
    W = make_product("cosh", chart, n, kappa)
    imm = random_immersion(W, seed=9, t_center=0.6, amplitude=0.1, res=8)
    geom = evaluate_geometry(imm)
    pairs = n * (n - 1) // 2
    for k in range(1, n):
        calls.clear()
        div_pk(imm, k, geom=geom)
        assert len(calls) == (pairs if k == 1 else 0), k
    for fresh in (evaluate_geometry(imm), dataclasses.replace(geom)):
        calls.clear()
        for k in reversed(range(1, n)):
            div_pk(imm, k, geom=fresh)
        assert len(calls) == pairs


def _suite_runs(imm, n):
    """(suite, k, run) for every identity-grid suite at every k, where
    ``run(geom, k)`` returns the suite's report."""
    runs = [("structure", 0, lambda g, k: {
        key: val["grid"] for key, val in structure_identities(g).items()})]
    for suite, fn, ks in (
            ("height-sigma", height_sigma_identities, range(n)),
            ("div-newton", div_pk, range(1, n)),
            ("theta-hat", theta_hat_identity, range(n)),
            ("calligraphic", calligraphic_ops, range(2, n + 1)),
            ("frak-phi", frak_phi, range(1, n + 1))):
        runs += [(suite, k, lambda g, k, fn=fn: fn(imm, k, geom=g))
                 for k in ks]
    return runs


def _grids(report):
    """The arrays of a report, residual grids unwrapped."""
    out = {}
    for key, val in report.items():
        if isinstance(val, operators.IdentityResidual):
            val = val.grid
        if isinstance(val, np.ndarray):
            out[key] = val
    return out


@pytest.mark.parametrize("chart,kappa,orientation", [("flat-torus", 0.0, 1),
                                                     ("space-form", 1.0, -1)])
def test_a_shared_geometry_gives_each_suite_its_fresh_grids(chart, kappa,
                                                            orientation):
    # the memo shares Hessians, kernel vectors and Newton minima between
    # suites: every residual grid, run in one sequence on one geometry,
    # must equal bit for bit the grid of a fresh geometry per suite
    W = make_product("cosh", chart, 3, kappa)
    imm = random_immersion(W, seed=12, t_center=0.6, amplitude=0.1,
                           res=8 if chart == "flat-torus" else 18,
                           orientation=orientation)
    shared = evaluate_geometry(imm)
    compared = 0
    for suite, k, run in _suite_runs(imm, 3):
        fresh = _grids(run(evaluate_geometry(imm), k))
        got = _grids(run(shared, k))
        assert got.keys() == fresh.keys(), (suite, k)
        for key, grid in got.items():
            assert np.array_equal(grid, fresh[key]), (suite, k, key)
            compared += 1
    assert compared > 40


def test_a_replaced_geometry_reads_its_own_fields():
    # the memo is per instance: after a suite has memoized Hessians on
    # geom, a grid with other Christoffel symbols must difference with
    # those, not read geom's memo
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.6, amplitude=0.1, res=8)
    geom = evaluate_geometry(imm)
    before = structure_identities(geom)["height-hessian"]["grid"]
    memo = geom.hess_covariant(geom.u)
    assert geom.hess_covariant(geom.u) is memo
    G = 2.0 * geom.christoffel
    doctored = dataclasses.replace(geom, christoffel=G)
    df, second = hessian(geom.u, geom.spacing, geom.cfg.order)
    expected = second - np.einsum("...kij,...k->...ij", G, df)
    got = doctored.hess_covariant(doctored.u)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert not np.allclose(got, memo)
    assert not np.array_equal(
        structure_identities(doctored)["height-hessian"]["grid"], before)
    # the original's memo is untouched
    assert geom.hess_covariant(geom.u) is memo


@pytest.mark.parametrize("k", [1, 2])
def test_a_nan_hcal_reaches_route_c_and_fails_div_newton(tmp_path, k):
    # route (c) reads hcal after the geometry is built, routes (a) and (b)
    # do not: one NaN node must reach residual_ac and residual_bc through
    # the frame pairs i < a, the skipped pairs i = a notwithstanding, and
    # fail the verify entry at a tolerance the clean geometry passes
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.6, amplitude=0.1, res=12)
    geom = evaluate_geometry(imm)
    hcal = geom.hcal.copy()
    hcal[2, 3, 4] = np.nan
    assert geom.interior[2, 3, 4]
    doctored = dataclasses.replace(geom, hcal=hcal)
    out = div_pk(imm, k, geom=doctored)
    assert math.isfinite(out["residual_ab"].max)
    assert math.isnan(out["residual_ac"].max)
    assert math.isnan(out["residual_bc"].max)
    for g, status in ((geom, cli.STATUS_PASS), (doctored, cli.STATUS_FAIL)):
        entry = {"op": "div-newton", "k": k, "tol": 1.0}
        cli._run_operations("verify", [dict(entry)], [entry], cli.VERIFY_OPS,
                            SimpleNamespace(imm=imm, geom=g), str(tmp_path))
        assert entry["status"] == status


@pytest.mark.parametrize("profile,chart,kappa", ROUTE_C_AMBIENTS[1:])
@pytest.mark.parametrize("n,res,order", [(3, 24, 4), (4, 12, 2)])
def test_div_pk_routes_b_and_c_agree_on_curved_fibers(profile, chart, kappa,
                                                      n, res, order):
    # routes (b) and (c) agree algebraically at every k; both grids keep
    # 8^3 or 4^4 audited nodes (an order-4 stencil audits none at 12^3 on
    # this non-periodic chart, where every maximum would be NaN)
    W = make_product(profile, chart, n, kappa)
    imm = random_immersion(W, seed=12, t_center=0.6, amplitude=0.1, res=res)
    geom = evaluate_geometry(imm, DiscretizationConfig(order=order))
    assert geom.interior.any()
    for k in range(1, n):
        assert div_pk(imm, k, geom=geom)["residual_bc"].max <= 1e-10, k


@pytest.mark.parametrize("profile,chart,kappa", ROUTE_C_AMBIENTS)
def test_curvature_trace_identity_per_j(profile, chart, kappa):
    # the identity holds at every j to rounding; at j = 0 it is minus
    # div_pk's residual_bc at k = 1, test vector by test vector
    W = make_product(profile, chart, 2, kappa)
    imm = random_immersion(W, seed=8, t_center=0.5, amplitude=0.1)
    geom = evaluate_geometry(imm)
    m = geom.interior
    bc = div_pk(imm, 1, geom=geom)["residual_bc"].grid
    for v, w in enumerate(operators.default_test_vectors(geom)):
        for j in range(2):
            residual = _curvature_trace_residual(geom, j, w)
            assert np.max(np.abs(residual[m])) <= 1e-10, (v, j)
        j0 = _curvature_trace_residual(geom, 0, w) + bc[..., v]
        assert np.max(np.abs(j0[m])) <= 1e-13, v


def test_operator_flip_parity():
    # flipping the normal flips A, so L_k picks up (-1)^k
    W = make_product("cosh", "flat-torus", 2, 0.0)
    fn = lambda m: 0.5 + 0.1 * np.sin(m[..., 0]) * np.cos(m[..., 1])
    plus = evaluate_geometry(
        random_immersion(W, seed=6, t_center=0.5, amplitude=0.1))
    minus_imm = random_immersion(W, seed=6, t_center=0.5, amplitude=0.1,
                                 orientation=-1)
    minus = evaluate_geometry(minus_imm)
    x = plus.imm.mesh()
    f = np.sin(x[..., 0]) + np.cos(x[..., 1])
    for k in range(2):
        a = lk_apply(plus, k, f)
        b = lk_apply(minus, k, f)
        m = plus.interior
        scale = max(1.0, float(np.max(np.abs(a[m]))))
        assert np.max(np.abs(b[m] - (-1.0) ** k * a[m])) <= 1e-10 * scale


def test_normalized_newton_trace_is_ck():
    # Lhat_k = L_k / H_k is the operator of P_k / H_k, whose trace is c_k
    # wherever H_k > 0
    W = make_product("cosh", "flat-torus", 3, 0.0)
    geom = evaluate_geometry(
        random_immersion(W, seed=3, t_center=0.8, amplitude=0.1, res=12))
    for k in range(3):
        Hk = geom.H[..., k]
        assert np.min(Hk) > 0.0, k
        trace = np.trace(geom.newton_tensor(k), axis1=-2, axis2=-1)
        assert np.max(np.abs(trace / Hk - geom.c[k])) <= 1e-12 * geom.c[k]


def test_calligraphic_grid_matches_the_per_node_recursion():
    # Pcal_m = (c_m / c_{m-1}) hcal Pcal_{m-1} + (-Theta)^m P_m, built node
    # by node from the per-matrix Newton family
    W = make_product("cosh", "flat-torus", 3, 0.0)
    geom = evaluate_geometry(
        random_immersion(W, seed=12, t_center=0.6, amplitude=0.15, res=8))
    c = geom.c
    grids = [operators._calligraphic_grid(geom, m + 1) for m in range(3)]
    for idx in np.ndindex(geom.u.shape):
        P = symfun.newton_family(geom.shape_frame[idx]).P
        Pcal = P[0]
        for m in range(3):
            if m:
                Pcal = (c[m] / c[m - 1]) * geom.hcal[idx] * Pcal \
                    + (-geom.theta[idx]) ** m * P[m]
            assert np.max(np.abs(grids[m][idx] - Pcal)) <= 1e-12, (idx, m)


def test_frak_matches_laplacian_at_order_zero():
    # P_0 = I, so the divergence-form operator at index 0 is the
    # divergence-form Laplacian, identically
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.5, amplitude=0.12)
    geom = evaluate_geometry(imm)
    f = np.sin(geom.imm.mesh()[..., 0])
    a = frak_apply(geom, 0, f)
    b = laplace_beltrami(geom, f)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_trace_vs_divergence_routes_converge():
    # L_0 f (trace of Hessian) and the divergence-form Laplacian differ
    # by differencing error only; the gap must close at stencil order
    W = make_product("cosh", "flat-torus", 2, 0.0)
    cfg = DiscretizationConfig(order=2)
    imm = random_immersion(W, seed=13, t_center=0.4, amplitude=0.12, res=32)

    def residual(geom):
        x = geom.imm.mesh()
        f = np.sin(x[..., 0]) + 0.5 * np.cos(x[..., 1])
        return {"trace-vs-divergence": lk_apply(geom, 0, f)
                - laplace_beltrami(geom, f)}

    study = convergence_study(imm, cfg, residual)["trace-vs-divergence"]
    assert len(study["maxima"]) == 3
    assert study["slope"] is not None and study["slope"] >= 1.9, study


def test_frak_phi_sign_structure_on_stable_graph():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=7, t_center=0.7, amplitude=0.08)
    rep = frak_phi(imm, 2)
    assert rep["applicable"]
    hyp = rep["hypotheses"]
    assert hyp["kappa_exceeds_alpha"]          # 0 > -1 for this profile
    assert hyp["theta_hat_nonpositive"]
    assert hyp["rho_prime_min"] > 0.0
    assert hyp["garding_margin"] >= -1e-10
    assert rep["all_terms_nonnegative"], rep["term_minima"]


@pytest.mark.parametrize("fiber,kappa,seed,res", [
    ("flat-torus", 0.0, 7, 16),
    ("round-sphere", 1.0, 5, 24),
])
def test_frak_phi_converges_at_k2_on_a_graph(fiber, kappa, seed, res):
    # H_2 varies on a graph, so the k >= 2 pairing of P_{k-2} with
    # grad H_k^{1/k} enters the closed form through curv != 0; a wrong
    # term leaves an O(1) residual that does not shrink under refinement
    W = make_product("cosh", CHART[fiber], 2, kappa)
    imm = random_immersion(W, seed=seed, t_center=0.7, amplitude=0.05,
                           res=res)
    geom = evaluate_geometry(imm)
    curv = kappa / geom.rho ** 2 + geom.dhcal
    assert np.min(np.abs(curv)) > 0.5
    cfg = DiscretizationConfig(order=2, refine_levels=3)
    study = convergence_study(imm, cfg, lambda g: {
        "four-term": frak_phi(g.imm, 2, geom=g)["residual"].grid})
    assert study["four-term"]["slope"] >= 1.9, study


def test_frak_phi_not_applicable_without_positive_curvature():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=5, t_center=0.0, amplitude=0.2)
    rep = frak_phi(imm, 2)
    assert rep["applicable"] is False
    assert rep["min_Hk"] <= 0.0
    assert "location" in rep


def test_nan_curvature_fails_the_positivity_gate():
    # NaN compares False either way, so the gate asks whether its value is
    # good: a NaN H_k must never pass, and its node is reported as ints
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.8, amplitude=0.1, res=12)
    geom = evaluate_geometry(imm)
    assert frak_phi(imm, 1, geom=geom)["applicable"]

    H = geom.H.copy()
    H[2, 3, 4, 1] = np.nan
    rep = frak_phi(imm, 1, geom=dataclasses.replace(geom, H=H))
    assert rep["applicable"] is False
    assert rep["location"] == (2, 3, 4)
    assert all(type(i) is int for i in rep["location"])


def test_nan_curvature_fails_the_newton_positivity_hypothesis():
    # every hypothesis holds on this slice, so only the NaN can break it;
    # a reduction that drops NaN, as Python's min(1.0, nan) does, passes it
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.7)
    geom = evaluate_geometry(imm)
    assert calligraphic_ops(imm, 2, geom=geom)["sign_hypotheses_hold"]
    assert frak_phi(imm, 2, geom=geom)["hypotheses"][
        "newton_min_eigenvalue"] > 0.0

    kappas = geom.kappas.copy()
    kappas[5, 7, 0] = np.nan
    assert geom.interior[5, 7]
    nan_kappa = dataclasses.replace(geom, kappas=kappas)
    assert not calligraphic_ops(imm, 2, geom=nan_kappa)["sign_hypotheses_hold"]
    rep = frak_phi(imm, 2, geom=nan_kappa)
    assert rep["applicable"]
    assert math.isnan(rep["hypotheses"]["newton_min_eigenvalue"])


def _nan_at_an_audited_node(geom, name):
    """``geom`` with its central node of field ``name`` set to NaN."""
    node = tuple(size // 2 for size in geom.interior.shape)
    assert geom.interior[node]
    field = getattr(geom, name).copy()
    field[node] = np.nan
    return dataclasses.replace(geom, **{name: field})


def test_a_nan_shape_operator_gives_nan_beta_routes():
    # the eigen frame of a NaN node is NaN, so both route residuals read
    # NaN; no eigen-solve raises and no warning escapes
    W = make_product("cosh", "space-form", 3, 1.0)
    imm = random_immersion(W, seed=2, t_center=0.6, amplitude=0.1, res=12)
    geom = _nan_at_an_audited_node(
        evaluate_geometry(imm, DiscretizationConfig(order=2)), "shape_frame")
    rep = theta_hat_identity(imm, 1, geom=geom)
    assert math.isnan(rep["beta_routes"].max)
    assert math.isnan(rep["general_vs_constant"].max)


def test_a_nan_newton_tensor_gives_a_nan_spectrum():
    W = make_product("cosh", "space-form", 3, 1.0)
    imm = random_immersion(W, seed=2, t_center=0.6, amplitude=0.1, res=12)
    geom = _nan_at_an_audited_node(
        evaluate_geometry(imm, DiscretizationConfig(order=2)), "newton")
    rep = calligraphic_ops(imm, 2, geom=geom)
    assert math.isnan(rep["sigma_identity"].max)
    assert math.isnan(rep["min_eigenvalue"])
    assert rep["semidefinite"] is False


def test_frak_phi_closed_form_on_slice():
    # constant H_k: the variable-curvature correction vanishes and the
    # four-term form is exact up to differencing of a constant field
    W = make_product("cosh", "flat-torus", 2, 0.0)
    rep = frak_phi(slice_immersion(W, 0.7), 2)
    assert rep["applicable"]
    assert np.max(np.abs(rep["variable_correction"])) <= 1e-10
    assert rep["residual"].max <= 1e-10
    for name, val in rep["term_minima"].items():
        assert val >= -1e-12, (name, val)


def test_operator_index_bounds():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = slice_immersion(W, 0.5, res=16)
    geom = evaluate_geometry(imm)
    f = geom.u
    with pytest.raises(ValueError):
        lk_apply(geom, 2, f)      # operator index is at most n-1
    with pytest.raises(ValueError):
        div_pk(imm, 0, geom=geom)           # divergence route starts at 1
    with pytest.raises(ValueError):
        calligraphic_ops(imm, 1, geom=geom)
    with pytest.raises(ValueError):
        frak_phi(imm, 3)                    # curvature order is at most n
