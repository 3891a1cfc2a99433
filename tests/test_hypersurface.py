"""Graph geometry: slices are exact, graphs converge at stencil order."""

import dataclasses
import gc
import math
import platform
import warnings
import weakref

import numpy as np
import pytest

from helpers import (CHART, inverse_metric, make_product, random_immersion,
                     slice_immersion)
from warpcurv import _grid, cli, symfun
from warpcurv._grid import min_or_nan
from warpcurv.ambient import PROFILES, curvature_tensor_components
from warpcurv.operators import (NotApplicableError, calligraphic_ops,
                                convergence_study, div_pk, frak_phi)
from warpcurv.hypersurface import (
    DiscretizationConfig,
    GraphImmersion,
    audit_window,
    coarsest_trim,
    evaluate_geometry,
    extrinsic_gamma_probe,
    sectional_bound_report,
    structure_identities,
)

SLICE_CASES = [
    ("exp", "flat-torus", 0.0, 0.7),
    ("cosh", "flat-torus", 0.0, 0.7),
    ("sin", "flat-torus", 0.0, 1.3),
    ("linear", "round-sphere", 1.0, 1.0),
    ("cosh", "round-sphere", 0.25, -0.4),
    ("cosh", "hyperbolic", -1.0, 0.7),
]  # (profile, fiber, kappa, t)


@pytest.mark.parametrize("profile,fiber,kappa,t", SLICE_CASES)
def test_slice_is_umbilical(profile, fiber, kappa, t):
    W = make_product(profile, CHART[fiber], 2, kappa)
    geom = evaluate_geometry(slice_immersion(W, t))
    h = float(W.profile.hcal(t))
    m = geom.interior
    assert np.max(np.abs(geom.theta[m] + 1.0)) <= 1e-13
    eye = np.eye(2)
    assert np.max(np.abs(geom.shape_frame[m] - h * eye)) <= 1e-12
    for k in range(3):
        assert np.max(np.abs(geom.H[m][:, k] - h ** k)) <= 1e-12
    assert np.max(np.abs(geom.a[m])) <= 1e-13


@pytest.mark.parametrize("profile,fiber,kappa", [
    ("exp", "flat-torus", 0.0), ("cosh", "flat-torus", 0.0),
    ("linear", "flat-torus", 0.0), ("sin", "flat-torus", 0.0),
    ("const", "flat-torus", 0.0), ("linear", "round-sphere", 1.0),
    ("cosh", "hyperbolic", -1.0)])
def test_slices_at_random_heights_are_umbilical(profile, fiber, kappa):
    # every slice {t} is umbilical with H_k = hcal(t)^k, whichever t in the
    # inner 80% of the profile's interval is drawn
    W = make_product(profile, CHART[fiber], 2, kappa)
    p = W.profile
    rng = np.random.default_rng(2027)
    for t in p.t_min + (0.1 + 0.8 * rng.uniform(size=4)) * (p.t_max - p.t_min):
        geom = evaluate_geometry(slice_immersion(W, float(t)))
        h = float(p.hcal(t))
        m = geom.interior
        assert np.all(geom.theta == -1.0), t
        # the order-4 stencils pair their terms, so a constant height
        # differences to exactly zero and H_k is hcal^k to a few ulps
        assert np.all(geom.du == 0.0) and np.all(geom.a == 0.0), t
        for k in range(3):
            err = np.max(np.abs(geom.H[m][:, k] - h ** k))
            assert err <= 1e-14 * max(1.0, abs(h) ** k), (t, k, err)


@pytest.mark.parametrize("chart,kappa", [("flat-torus", 0.0),
                                         ("space-form", 1.0),
                                         ("space-form", -1.0)])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_slices_are_umbilical_at_n3(profile, chart, kappa):
    # slices over the three-dimensional torus, sphere and hyperbolic space:
    # A = hcal I and H_k = hcal^k for k = 0..3, as exact at n = 3 as at 2
    W = make_product(profile, chart, 3, kappa)
    t = W.profile.t0 + 0.3
    geom = evaluate_geometry(slice_immersion(W, t, res=20))
    h = float(W.profile.hcal(t))
    m = geom.interior
    assert m.any()
    assert np.all(geom.theta == -1.0)
    assert np.all(geom.du == 0.0) and np.all(geom.a == 0.0)
    assert np.max(np.abs(geom.shape_frame[m] - h * np.eye(3))) \
        <= 1e-14 * max(1.0, abs(h))
    for k in range(4):
        err = np.max(np.abs(geom.H[m][:, k] - h ** k))
        assert err <= 1e-14 * max(1.0, abs(h) ** k), (k, err)


def _off_centre_sphere(R, c):
    """Height of the sphere |t S(x) - c| = R in linear x space-form with
    kappa = 1, which is Euclidean space minus the origin (t S(x) with S the
    inverse stereographic projection); the origin lies inside it."""
    c = np.asarray(c, dtype=float)

    def u(mesh):
        r2 = np.sum(mesh * mesh, axis=-1)
        S = np.concatenate([2.0 * mesh, (1.0 - r2)[..., None]], axis=-1) \
            / (1.0 + r2)[..., None]
        b = S @ c
        return b + np.sqrt(b * b - c @ c + R * R)
    return u


@pytest.mark.parametrize("orientation", [1, -1])
def test_off_centre_sphere_is_umbilical_at_stencil_order(orientation):
    # a closed-form non-slice on the curved chart: every principal curvature
    # of a Euclidean sphere of radius R is 1/R (with the sign of the
    # normal), so H_k = (+-1/R)^k, and order-4 stencils must converge to it
    R = 2.0
    W = make_product("linear", "space-form", 2, 1.0)
    imm = GraphImmersion.from_function(
        W, _off_centre_sphere(R, (0.36, 0.0, -0.48)), 24,
        orientation=orientation)
    kappa = orientation / R

    def residuals(geom):
        out = {"kappas": geom.kappas - kappa}
        out.update({f"H{k}": geom.H[..., k] - kappa ** k for k in (1, 2)})
        return out

    studies = convergence_study(imm, DiscretizationConfig(order=4), residuals)
    for name, study in studies.items():
        maxima = study["maxima"]
        orders = [math.log2(maxima[i] / maxima[i + 1]) for i in range(2)]
        assert all(o >= 3.5 for o in orders), (name, maxima, orders)


def test_flipped_normal_negates_curvatures():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    geom = evaluate_geometry(slice_immersion(W, 0.7, orientation=-1))
    h = math.tanh(0.7)
    m = geom.interior
    assert np.max(np.abs(geom.theta[m] - 1.0)) <= 1e-13
    assert np.max(np.abs(geom.shape_frame[m] + h * np.eye(2))) <= 1e-12
    assert np.max(np.abs(geom.H[m][:, 1] + h)) <= 1e-12


def test_slice_structure_identities_exact():
    W = make_product("cosh", "space-form", 2, 1.0)
    geom = evaluate_geometry(slice_immersion(W, 0.7))
    for name, rec in structure_identities(geom).items():
        assert rec["max"] <= 1e-12, name


def test_tilted_plane_in_product_is_totally_geodesic():
    # constant profile over a flat chart: the ambient is a metric product,
    # so a linear height field is a totally geodesic plane
    W = make_product("const", "flat-torus", 2, 0.0)
    imm = GraphImmersion.from_function(
        W, lambda m: 0.3 * m[..., 0], 48, periodic=(False, False))
    geom = evaluate_geometry(imm)
    m = geom.interior
    theta_expect = -1.0 / math.sqrt(1.09)
    assert np.max(np.abs(geom.theta[m] - theta_expect)) <= 1e-12
    assert np.max(np.abs(geom.kappas[m])) <= 1e-9
    assert np.max(np.abs(geom.H[m][:, 1])) <= 1e-9


def test_metric_factorization_consistency():
    W = make_product("cosh", "space-form", 2, 1.0)
    imm = random_immersion(W, seed=4, t_center=0.5, amplitude=0.1)
    geom = evaluate_geometry(imm)
    g = geom.du[..., :, None] * geom.du[..., None, :] \
        + (geom.rho * geom.rho)[..., None, None] * geom.ghat
    reassembled = np.einsum("...ik,...jk->...ij", geom.L, geom.L)
    assert np.max(np.abs(reassembled - g)) <= 1e-12
    prod = np.einsum("...ij,...jk->...ik", inverse_metric(geom.L_inv), g)
    assert np.max(np.abs(prod - np.eye(2))) <= 1e-10
    assert np.max(np.abs(geom.theta ** 2
                         + np.einsum("...i,...i->...", geom.a, geom.a) - 1.0)) <= 1e-12


def test_point_route_matches_batched_fields():
    # the per-node Jacobi route against the batched sweeps
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=9, t_center=0.4, amplitude=0.15)
    geom = evaluate_geometry(imm)
    g_inv = inverse_metric(geom.L_inv)
    for idx in [(3, 5), (10, 17), (20, 2)]:
        kappas = symfun.jacobi_eigenvalues(geom.shape_frame[idx])
        P = symfun.newton_family(geom.shape_frame[idx]).P
        assert np.max(np.abs(kappas - geom.kappas[idx])) <= 1e-10
        for k in range(2):
            assert np.max(np.abs(P[k] - geom.newton_tensor(k)[idx])) <= 1e-10
        # chart-mixed shape operator has the same spectrum as the frame one
        A_chart = g_inv[idx] @ geom.II[idx]
        chart_eigs = np.sort(np.linalg.eigvals(A_chart).real)
        assert np.max(np.abs(chart_eigs - kappas)) <= 1e-9


def test_newton_tensor_shares_the_identity_and_reads_the_stack():
    W = make_product("cosh", "flat-torus", 3, 0.0)
    geom = evaluate_geometry(random_immersion(W, seed=5, t_center=0.6,
                                              amplitude=0.15, res=12))
    n = geom.n
    assert geom.newton.shape == geom.u.shape + (n - 1, n, n)
    # P~_0 = I is one n x n identity, viewed at every node with stride 0
    P0 = geom.newton_tensor(0)
    assert P0.shape == geom.shape_frame.shape
    assert P0.strides[:n] == (0,) * n and not P0.flags.writeable
    assert np.array_equal(P0, np.broadcast_to(np.eye(n), P0.shape))
    for idx in [(0, 0, 0), (3, 7, 11), (11, 2, 5)]:
        P = symfun.newton_family(geom.shape_frame[idx]).P
        for k in range(1, n):
            assert np.max(np.abs(geom.newton_tensor(k)[idx] - P[k])) <= 1e-10
    # a negative index would silently read P~_{n-1} off the stack
    for k in (-1, n):
        with pytest.raises(ValueError, match=f"k={k} outside"):
            geom.newton_tensor(k)


def test_geometry_holds_each_buffer_once():
    # every distinct buffer once, views followed to their owner: 24^3 nodes
    # at n = 3 hold no P~_0, no metric g beside L, and no copy of the mesh
    W = make_product("cosh", "flat-torus", 3, 0.0)
    geom = evaluate_geometry(random_immersion(W, seed=100, t_center=0.7,
                                              res=24))
    owners = {}
    for value in _array_fields(geom).values():
        while isinstance(value.base, np.ndarray):
            value = value.base
        owners[id(value)] = value.nbytes
    assert sum(owners.values()) == 11_515_704
    # nor what L and the normal already give: g^-1, sqrt(det g), the chart
    # gradient of the height and Theta
    assert not {"g", "x", "g_inv", "sqrt_det_g", "grad_h_chart",
                "theta"} & set(_array_fields(geom))


def test_refinement_shapes():
    # a torus chart with its first axis treated as closed
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = GraphImmersion.from_function(W, lambda m: 0.3 + 0.0 * m[..., 0],
                                       (17, 24), periodic=(False, True))
    fine = imm.refined()
    assert fine.shape == (33, 48)  # closed axis doubles cells, keeps endpoint
    assert np.allclose(fine.box, imm.box)


def test_structure_identities_converge_at_stencil_order():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    cfg = DiscretizationConfig(order=2, refine_levels=3)
    imm = random_immersion(W, seed=21, t_center=0.3, amplitude=0.12, res=32)
    keys = ("height-hessian", "sigma-hessian")

    def residuals(geom):
        out = structure_identities(geom)
        return {key: out[key]["grid"] for key in keys}

    studies = convergence_study(imm, cfg, residuals)
    assert tuple(studies) == keys
    for key, study in studies.items():
        maxima = study["maxima"]
        slopes = [math.log2(maxima[i] / maxima[i + 1]) for i in range(2)]
        assert maxima[0] > 1e-9, "residual too small to measure a slope"
        assert all(s >= 1.9 for s in slopes), (key, maxima, slopes)


@pytest.mark.parametrize("profile,chart,n,kappa", [
    ("cosh", "flat-torus", 3, 0.0),
    ("exp", "space-form", 2, 1.0),
    ("cosh", "space-form", 2, -1.0),
])
def test_gradient_decomposition_sees_the_metric_factor(profile, chart, n,
                                                       kappa):
    # grad h raised through L^-1 against the normal's closed form: the two
    # routes share no metric factor, so a transposed L^-1 must show
    W = make_product(profile, chart, n, kappa)
    geom = evaluate_geometry(random_immersion(W, seed=3, t_center=0.2,
                                              res=24))
    key = "gradient-decomposition"
    assert structure_identities(geom)[key]["max"] <= 1e-15
    slipped = dataclasses.replace(geom, L_inv=np.swapaxes(geom.L_inv, -1, -2))
    assert structure_identities(slipped)[key]["max"] > 1e-4


@pytest.mark.parametrize("profile,fiber,kappa,origin", [
    ("const", "flat-torus", 0.0, (3.0, 3.0)),
    ("cosh", "round-sphere", 1.0, (0.1, -0.15)),
    ("cosh", "hyperbolic", -1.0, (-0.2, 0.1)),
])
def test_distance_probe_on_slices(profile, fiber, kappa, origin):
    W = make_product(profile, CHART[fiber], 2, kappa)
    rep = extrinsic_gamma_probe(
        evaluate_geometry(slice_immersion(W, 0.5, res=32)), origin)
    assert rep["gradient_bound_holds"]
    assert rep["min_margin"] >= -1e-10
    # on a slice the Hessian decomposition reduces to the fiber closed form;
    # what is left is the differencing error of the induced symbols
    assert rep["hessian_max"] <= 5e-4


def test_distance_probe_on_graph():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.2, amplitude=0.1, res=32)
    rep = extrinsic_gamma_probe(evaluate_geometry(imm), (3.0, 3.0))
    assert rep["gradient_bound_holds"]
    assert rep["hessian_max"] <= 5e-3


def test_distance_probe_fails_when_rho_is_doctored():
    # on the true geometry |grad gamma| <= 2 sqrt(gamma)/rho holds; a rho
    # four times too large shrinks the bound below the gradient norm,
    # which the inverse metric still measures with the true rho
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=3, t_center=0.2, amplitude=0.1, res=32)
    geom = evaluate_geometry(imm)
    honest = extrinsic_gamma_probe(geom, (3.0, 3.0))
    assert honest["gradient_bound_holds"] and honest["min_margin"] >= -1e-10
    doctored = extrinsic_gamma_probe(
        dataclasses.replace(geom, rho=4.0 * geom.rho), (3.0, 3.0))
    assert not doctored["gradient_bound_holds"]
    assert doctored["min_margin"] < 0.0


def test_empty_audit_region_fails_instead_of_reading_zero():
    # order-4 stencils leave an 8-cell margin on each non-periodic side,
    # which covers all 16 rows of every axis of the space-form chart
    W = make_product("exp", "space-form", 2, 1.0)
    imm = slice_immersion(W, W.profile.t0, res=16)
    geom = evaluate_geometry(imm)
    assert not geom.interior.any()
    residuals = structure_identities(geom)
    assert residuals and all(math.isnan(val["max"])
                             for val in residuals.values())
    rep = extrinsic_gamma_probe(geom, (0.1, -0.15))
    assert not rep["gradient_bound_holds"]
    assert math.isnan(rep["min_margin"]) and math.isnan(rep["hessian_max"])
    sec = sectional_bound_report(geom)
    assert math.isnan(sec["sectional_min"]) and math.isnan(sec["ambient_min"])
    assert not sec["chain_holds"] and not sec["fiber_bound_holds"]
    with pytest.raises(NotApplicableError, match="no audited node"):
        calligraphic_ops(imm, 2, geom=geom)
    with pytest.raises(NotApplicableError, match="no audited node"):
        frak_phi(imm, 1, geom=geom)


def test_sectional_report_holds_nothing_without_a_frame_pair():
    # n = 1 has audited nodes but no frame pair: no plane was checked, so
    # no bound holds (the minima would read inf, and pass, over no pair)
    W = make_product("cosh", "flat-torus", 1, 0.0)
    geom = evaluate_geometry(random_immersion(W, seed=3, res=16))
    assert geom.interior.any()
    sec = sectional_bound_report(geom)
    assert math.isnan(sec["sectional_min"]) and math.isnan(sec["ambient_min"])
    assert not sec["chain_holds"] and not sec["fiber_bound_holds"]


def test_sectional_report_on_exponential_slice():
    # slice of the exp product over a flat fiber is intrinsically flat
    W = make_product("exp", "flat-torus", 2, 0.0)
    rep = sectional_bound_report(evaluate_geometry(slice_immersion(W, 0.4)))
    assert abs(rep["sectional_min"]) <= 1e-12
    assert abs(rep["ambient_min"] + 1.0) <= 1e-12
    assert rep["chain_holds"] and rep["fiber_bound_holds"]


def test_min_or_nan_keeps_a_nan_and_the_first_signed_zero():
    # a NaN anywhere wins; otherwise ties keep min's first-wins order
    assert math.isnan(min_or_nan([1.0, math.nan, -1.0]))
    assert math.copysign(1.0, min_or_nan([1.0, -0.0, 0.0])) == -1.0
    assert math.copysign(1.0, min_or_nan([0.0, -0.0])) == 1.0
    assert min_or_nan([]) == math.inf


def test_sectional_report_propagates_a_nan_shape_entry():
    # Python's min drops a NaN that is not first, so the realized bound
    # would read finite while the chain check fails
    W = make_product("cosh", "flat-torus", 3, 0.0)
    geom = evaluate_geometry(random_immersion(W, seed=3, res=12))
    frame = geom.shape_frame.copy()
    frame[2, 3, 4, 1, 1] = np.nan
    rep = sectional_bound_report(dataclasses.replace(geom, shape_frame=frame))
    assert math.isnan(rep["sectional_min"])
    assert not rep["chain_holds"]
    assert rep["ambient_min"] == sectional_bound_report(geom)["ambient_min"]


@pytest.mark.parametrize("profile,chart,kappa", [
    ("cosh", "flat-torus", 0.0), ("exp", "space-form", 1.0),
    ("exp", "space-form", -1.0)])
def test_sectional_report_ambient_term_matches_the_tensor(profile, chart,
                                                          kappa):
    # the report's closed-form K_amb against <R(E_i, E_j)E_j, E_i> from
    # the curvature tensor, minimized over audited nodes and frame pairs
    W = make_product(profile, chart, 3, kappa)
    geom = evaluate_geometry(random_immersion(W, seed=3, t_center=0.5,
                                              amplitude=0.1, res=24))
    E = [geom.ambient_components(geom.L_inv[..., i, :]) for i in range(3)]
    tensor_min = math.inf
    for i, j in ((0, 1), (0, 2), (1, 2)):
        R = curvature_tensor_components(kappa, geom.rho, geom.hcal,
                                        geom.dhcal, geom.ghat, E[i], E[j], E[j])
        fib = np.einsum("...i,...ij,...j->...", R[..., 1:], geom.ghat,
                        E[i][..., 1:])
        K = R[..., 0] * E[i][..., 0] + geom.rho ** 2 * fib
        tensor_min = min(tensor_min, float(np.min(K[geom.interior])))
    ambient_min = sectional_bound_report(geom)["ambient_min"]
    assert abs(ambient_min - tensor_min) <= 1e-13 * max(1.0, abs(tensor_min))


def test_sphere_slice_sectional_value():
    # slice {t} of linear x unit sphere: a round sphere of radius t
    W = make_product("linear", "space-form", 2, 1.0)
    rep = sectional_bound_report(evaluate_geometry(slice_immersion(W, 2.0)))
    assert abs(rep["sectional_min"] - 1.0 / 4.0) <= 1e-12


def test_height_must_stay_in_profile_interval():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    with pytest.raises(ValueError, match="exits the profile interval"):
        GraphImmersion.from_function(
            W, lambda m: 2.9 + 0.3 * np.sin(m[..., 0]), 24)


def test_immersion_validation():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    with pytest.raises(ValueError, match="at least 8"):
        GraphImmersion.from_function(W, lambda m: 0.0 * m[..., 0], 6)
    with pytest.raises(ValueError, match="orientation"):
        GraphImmersion.from_function(W, lambda m: 0.0 * m[..., 0], 16,
                                     orientation=2)
    with pytest.raises(ValueError, match="axes"):
        GraphImmersion(W=W, u=np.zeros(16), box=((0.0, 1.0),),
                       periodic=(True,))
    with pytest.raises(ValueError, match="finite"):
        GraphImmersion.from_function(W, lambda m: np.nan + m[..., 0], 16)
    for box in ([(0.0, 1.0), (1.0, 1.0)], [(0.0, 1.0), (np.nan, 1.0)]):
        with pytest.raises(ValueError, match="lo < hi"):
            GraphImmersion.from_function(W, lambda m: 0.0 * m[..., 0], 16,
                                         box=box)
    # a box whose far corner reaches the Poincare ball's boundary sphere
    W = make_product("cosh", "space-form", 2, -4.0)
    with pytest.raises(ValueError, match="Poincare ball"):
        GraphImmersion.from_function(W, lambda m: 0.0 * m[..., 0], 16,
                                     box=[(-0.1, 0.3), (-0.4, 0.2)])
    GraphImmersion.from_function(W, lambda m: 0.0 * m[..., 0], 16,
                                 box=[(-0.1, 0.3), (-0.39, 0.2)])


def test_h_safe_beyond_dimension():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    geom = evaluate_geometry(slice_immersion(W, 0.5, res=16))
    assert np.max(np.abs(geom.H_safe(3))) == 0.0
    assert np.max(np.abs(geom.H_safe(2) - geom.H[..., 2])) == 0.0


def test_audit_window_trims_physical_margin():
    # a torus chart with its first axis treated as closed
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = GraphImmersion.from_function(W, lambda m: 0.5 + 0.0 * m[..., 0],
                                       24, periodic=(False, True))
    cfg = DiscretizationConfig()
    trim = coarsest_trim(imm, cfg)
    assert trim[1] == 0.0  # periodic axis is never trimmed
    assert trim[0] > 0.0
    win = audit_window(imm, trim)
    assert win.shape == imm.shape
    assert not win[0, 0] and not win[-1, 0]
    assert win[imm.shape[0] // 2, 0]
    # refining keeps the same physical window
    fine = imm.refined()
    win_fine = audit_window(fine, trim)
    frac = np.mean(win)
    frac_fine = np.mean(win_fine)
    assert abs(frac - frac_fine) <= 0.1


def test_stencil_order_guard():
    with pytest.raises(ValueError, match="order"):
        DiscretizationConfig(order=3)


def test_refinement_needs_two_levels():
    # a slope through one point is not a convergence rate
    with pytest.raises(ValueError, match="two refinement levels"):
        DiscretizationConfig(refine_levels=1)
    assert DiscretizationConfig(refine_levels=2).refine_levels == 2


def _owner(a):
    """The array that owns the memory behind ``a``."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_flat_fiber_fields_are_stored_once():
    # the flat chart's identity metric and zero symbols are read-only views
    # of one small array each, not copies at every node
    n = 3
    W = make_product("cosh", "flat-torus", n, 0.0)
    geom = evaluate_geometry(random_immersion(W, seed=3, res=12))
    for name, rank in (("ghat", 2), ("gammahat", 3)):
        field = getattr(geom, name)
        assert field.shape == geom.u.shape + (n,) * rank, name
        assert _owner(field).size == n ** rank, name
        assert not field.flags.writeable, name
    assert np.array_equal(geom.ghat[3, 4, 5], np.eye(n))
    assert not np.any(geom.gammahat)

    # a curved chart's fields vary, so every node keeps its own value
    W = make_product("cosh", "space-form", 2, 1.0)
    geom = evaluate_geometry(random_immersion(W, seed=5, amplitude=0.05))
    for name in ("ghat", "gammahat"):
        field = getattr(geom, name)
        assert _owner(field).size == field.size, name


# ---------------------------------------------------------------------------
# one geometry per immersion and config
# ---------------------------------------------------------------------------

def _array_fields(geom):
    return {f.name: getattr(geom, f.name) for f in dataclasses.fields(geom)
            if isinstance(getattr(geom, f.name), np.ndarray)}


def test_geometry_memo_makes_no_reference_cycle():
    # a memo holding the GeometryGrid, which points back at its immersion,
    # would keep both alive until the cyclic collector ran; with it off,
    # dropping the last references must free the immersion and its
    # fields, the flipped immersion's included
    W = make_product("cosh", "flat-torus", 2, 0.0)
    gc.disable()
    try:
        imm = slice_immersion(W, 0.7, res=12, orientation=-1)
        geom = evaluate_geometry(imm)
        flipped = evaluate_geometry(imm.flipped())
        refs = [weakref.ref(obj) for obj in (imm, imm.flipped(), geom.kappas,
                                             flipped.kappas)]
        del imm, geom, flipped
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.skipif(_grid._set_malloc_thresholds() is None
                    or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are set through glibc's "
                           "mallopt")
def test_repeated_grids_reuse_the_heap_without_page_faults():
    # with glibc's dynamic thresholds, each freed 24^3 geometry handed the
    # top of the heap back to the kernel, and the next item faulted it in
    # again: about 3,000 minor faults per item here.  The fixed thresholds
    # keep the freed buffers, so a repeated item of the same size faults
    # in next to nothing (seen: 6 over four items)
    import resource   # Unix only, as is the skip condition above
    # setting them again at import's values returns 1 for each
    assert _grid._set_malloc_thresholds() == (1, 1)
    W = make_product("cosh", "flat-torus", 3, 0.0)

    def item(seed):
        imm = random_immersion(W, seed=seed, t_center=0.7, res=24)
        geom = evaluate_geometry(imm)
        div_pk(imm, 1, geom=geom)
        structure_identities(geom)

    # the first two items grow the heap to the size these items need
    item(0)
    item(1)
    faults = []
    for seed in (2, 3, 0, 1):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        item(seed)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert sum(faults) < 100 * len(faults), faults


def test_immersion_and_its_geometry_are_read_only():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    heights = np.full((12, 12), 0.7)
    imm = GraphImmersion(W=W, u=heights, box=W.fiber.default_box(),
                         periodic=W.fiber.periodic)
    # the immersion holds a copy: the caller's array stays writable
    heights[0, 0] = 0.5
    assert imm.u[0, 0] == 0.7
    with pytest.raises(ValueError, match="read-only"):
        imm.u[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        imm.orientation = -1
    geom = evaluate_geometry(imm)
    fields = _array_fields(geom)
    assert len(fields) == 21
    for name, value in fields.items():
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
        assert not value.flags.writeable, name
    # Theta is the normal's T component, read through it
    assert not geom.theta.flags.writeable
    assert np.shares_memory(geom.theta, geom.normal)
    # the grid is frozen too, and what it memoizes is read-only
    with pytest.raises(dataclasses.FrozenInstanceError):
        geom.u = geom.u
    for f in (geom.u, geom.sigma):
        with pytest.raises(ValueError, match="read-only"):
            geom.hess_covariant(f)[...] = 0
    frak_phi(imm, 2, geom=geom)
    for value in geom._memo.values():
        for array in (value if isinstance(value, tuple) else (value,)):
            assert not isinstance(array, np.ndarray) \
                or not array.flags.writeable
    assert set(geom._memo) == {("hess", "u"), ("hess", "sigma"),
                               "newton_min"}


def test_stencils_that_overflow_are_refused_without_a_warning():
    # the spacing squares to a normal float, so the box passes, but the
    # differenced metric overflows: a ValueError, not non-finite symbols
    W = cli.build_ambient({"profile": "cosh", "chart": "flat-torus", "n": 2,
                           "lengths": [1e-150, 1]})
    imm = cli.build_immersion(W, {"family": "random", "resolution": 16},
                              np.random.default_rng(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Christoffel symbols are not "
                                             "finite"):
            evaluate_geometry(imm)


@pytest.mark.parametrize("order", [2, 4])
def test_memo_hit_equals_a_fresh_evaluation(order):
    W = make_product("cosh", "flat-torus", 3, 0.0)
    imm = random_immersion(W, seed=4, res=12)
    first = evaluate_geometry(imm, DiscretizationConfig(order=order))
    hit = evaluate_geometry(imm, DiscretizationConfig(order=order))
    fresh = evaluate_geometry(random_immersion(W, seed=4, res=12),
                              DiscretizationConfig(order=order))
    assert hit.imm is imm and hit.cfg == first.cfg
    shared, own = _array_fields(hit), _array_fields(fresh)
    for name, value in _array_fields(first).items():
        assert shared[name] is value, name
        assert np.array_equal(own[name], value), name
    # another config has its own entry, even one the fields do not
    # depend on
    other = evaluate_geometry(imm, DiscretizationConfig(order=6 - order))
    assert not np.array_equal(other.du, first.du)
    levels = evaluate_geometry(imm, DiscretizationConfig(order=order,
                                                         refine_levels=2))
    assert levels.du is not first.du and np.array_equal(levels.du, first.du)
