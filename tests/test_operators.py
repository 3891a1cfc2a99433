"""Operator layer: trace-form and divergence-form operators and the
curvature identities relating them.

Route discipline: *_algebraic residuals pit two closed forms against each
other and must sit at rounding level on any grid; differenced residuals
are checked on slices (where they are exact) and under refinement
elsewhere.
"""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (CHART, make_product, random_immersion, random_symmetric,
                     slice_immersion)
from warpcurv import symfun
from warpcurv.hypersurface import (DiscretizationConfig, GraphImmersion,
                                   evaluate_geometry)
from warpcurv.operators import (
    NotApplicableError,
    calligraphic_family,
    calligraphic_ops,
    convergence_study,
    curvature_trace_identity,
    div_pk,
    frak_apply,
    frak_phi,
    height_sigma_identities,
    laplace_beltrami,
    lk_apply,
    normalized_lhat,
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
        for rec in hs.values():
            assert rec.max <= 1e-11, rec.id
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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_algebraic_routes_on_random_graphs(seed):
    W = make_product("cosh", "flat-torus", 2, 0.0)
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
        assert curvature_trace_identity(geom, j, w).max <= 1e-10


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


def test_curvature_trace_identity_curved_fiber():
    W = make_product("cosh", "space-form", 2, 1.0)
    imm = random_immersion(W, seed=8, t_center=0.5, amplitude=0.1)
    geom = evaluate_geometry(imm)
    w = np.broadcast_to(np.array([0.3, -1.1]), geom.a.shape)
    for j in range(2):
        assert curvature_trace_identity(geom, j, w).max <= 1e-10


def test_operator_flip_parity():
    # flipping the normal flips A, so L_k picks up (-1)^k
    W = make_product("cosh", "flat-torus", 2, 0.0)
    fn = lambda m: 0.5 + 0.1 * np.sin(m[..., 0]) * np.cos(m[..., 1])
    plus = evaluate_geometry(
        random_immersion(W, seed=6, t_center=0.5, amplitude=0.1))
    minus_imm = random_immersion(W, seed=6, t_center=0.5, amplitude=0.1,
                                 orientation=-1)
    minus = evaluate_geometry(minus_imm)
    f = np.sin(plus.x[..., 0]) + np.cos(plus.x[..., 1])
    for k in range(2):
        a = lk_apply(plus, k, f)
        b = lk_apply(minus, k, f)
        m = plus.interior
        scale = max(1.0, float(np.max(np.abs(a[m]))))
        assert np.max(np.abs(b[m] - (-1.0) ** k * a[m])) <= 1e-10 * scale


def test_normalized_operator_requires_positive_curvature():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    # centered at the neck: H_1 changes sign across the grid
    imm = random_immersion(W, seed=5, t_center=0.0, amplitude=0.2)
    geom = evaluate_geometry(imm)
    f = geom.u
    with pytest.raises(NotApplicableError, match="not positive"):
        normalized_lhat(geom, 1, f)
    # away from the neck the same construction is fine
    good = random_immersion(W, seed=5, t_center=0.8, amplitude=0.1)
    ggeom = evaluate_geometry(good)
    field = normalized_lhat(ggeom, 1, ggeom.u)
    assert field.shape == ggeom.u.shape
    assert np.all(np.isfinite(field))


def test_normalized_operator_is_decided_on_the_audited_nodes():
    # on the bounded sphere chart the wrapped stencils leave H_1 meaningless
    # next to the edges; only the audited nodes decide positivity
    W = make_product("exp", "space-form", 2, 1.0)
    imm = random_immersion(W, seed=5, t_center=0.0, amplitude=0.05, res=32)
    geom = evaluate_geometry(imm)
    mask = geom.interior
    assert mask.any() and not mask.all()
    H1 = geom.H[..., 1]
    assert np.min(H1[mask]) > 0.6 and not np.min(H1) > 0.0
    field = normalized_lhat(geom, 1, geom.u)
    assert np.all(np.isfinite(field[mask])) and np.all(np.isnan(field[~mask]))
    expected = lk_apply(geom, 1, geom.u)[mask] / H1[mask]
    assert np.array_equal(field[mask], expected)

    # a non-positive audited node is reported as plain ints
    node = tuple(int(i) for i in np.argwhere(mask)[0])
    H = geom.H.copy()
    H[node + (1,)] = -1.0
    with pytest.raises(NotApplicableError,
                       match=rf"min at \({node[0]}, {node[1]}\)") as err:
        normalized_lhat(dataclasses.replace(geom, H=H), 1, geom.u)
    assert err.value.location == node
    assert all(type(i) is int for i in err.value.location)


def test_calligraphic_recursion():
    # Pcal_m = (c_m / c_{m-1}) hcal Pcal_{m-1} + (-theta)^m ... built directly
    rng = np.random.default_rng(12)
    A = random_symmetric(rng, 4)
    hcal, theta = 0.8, -0.6
    fam = calligraphic_family(A, hcal, theta)
    newt = symfun.newton_family(A)
    c = [symfun.trace_coefficient(4, j) for j in range(4)]
    assert np.max(np.abs(fam[0] - np.eye(4))) <= 1e-14
    for m in range(1, 4):
        rec = (c[m] / c[m - 1]) * hcal * fam[m - 1] \
            + (-1.0) ** m * theta ** m * newt.P[m]
        assert np.max(np.abs(fam[m] - rec)) <= 1e-12, m


def test_frak_matches_laplacian_at_order_zero():
    # P_0 = I, so the divergence-form operator at index 0 is the
    # divergence-form Laplacian, identically
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.5, amplitude=0.12)
    geom = evaluate_geometry(imm)
    f = np.sin(geom.x[..., 0])
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
        f = np.sin(geom.x[..., 0]) + 0.5 * np.cos(geom.x[..., 1])
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


def test_frak_phi_not_applicable_without_positive_curvature():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=5, t_center=0.0, amplitude=0.2)
    rep = frak_phi(imm, 2)
    assert rep["applicable"] is False
    assert rep["min_Hk"] <= 0.0
    assert "location" in rep


def test_nan_curvature_fails_the_positivity_and_trace_gates():
    # NaN compares False either way, so each gate asks whether its value is
    # good: a NaN H_k or Newton trace must never pass
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.8, amplitude=0.1, res=12)
    geom = evaluate_geometry(imm)
    assert np.all(np.isfinite(normalized_lhat(geom, 1, geom.u)))
    assert frak_phi(imm, 1, geom=geom)["applicable"]

    H = geom.H.copy()
    H[2, 3, 4, 1] = np.nan
    nan_h = dataclasses.replace(geom, H=H)
    with pytest.raises(NotApplicableError, match="not positive"):
        normalized_lhat(nan_h, 1, geom.u)
    rep = frak_phi(imm, 1, geom=nan_h)
    assert rep["applicable"] is False
    assert rep["location"] == (2, 3, 4)

    newton = geom.newton.copy()
    newton[2, 3, 4, 1, 0, 0] = np.nan
    with pytest.raises(RuntimeError, match="trace off"):
        normalized_lhat(dataclasses.replace(geom, newton=newton), 1, geom.u)


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
