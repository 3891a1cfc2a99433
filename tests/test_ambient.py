"""Ambient layer: profiles, fiber charts, curvature tensor."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import make_product
from warpcurv import ambient


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------

def test_exp_profile_closed_forms():
    p = ambient.builtin_profile("exp")
    ts = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(p.hcal(ts), 1.0, atol=1e-14)
    assert np.allclose(p.dhcal(ts), 0.0, atol=1e-14)
    assert np.allclose(p.sigma_fn(ts), np.exp(ts) - 1.0, atol=1e-12)


def test_cosh_profile_closed_forms():
    p = ambient.builtin_profile("cosh")
    ts = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(p.hcal(ts), np.tanh(ts), atol=1e-14)
    assert np.allclose(p.dhcal(ts), 1.0 / np.cosh(ts) ** 2, atol=1e-14)


def test_linear_profile_closed_forms():
    p = ambient.builtin_profile("linear")
    ts = np.linspace(0.2, 9.0, 41)
    assert np.allclose(p.hcal(ts), 1.0 / ts, atol=1e-14)
    assert np.allclose(p.dhcal(ts), -1.0 / ts ** 2, atol=1e-14)


@pytest.mark.parametrize("name", ["exp", "cosh", "linear", "sin", "const"])
def test_sigma_against_quadrature(name):
    p = ambient.builtin_profile(name)
    ts = np.linspace(p.t_min + 0.05, p.t_max - 0.05, 11)
    for t in ts:
        ref, err = quad(lambda s: float(p.rho(s)), p.t0, float(t))
        assert abs(float(p.sigma_fn(t)) - ref) <= 1e-9 + 10 * err


@pytest.mark.parametrize("name,alpha", [
    ("exp", 0.0), ("cosh", -1.0), ("linear", 1.0), ("const", 0.0),
])
def test_alpha_closed_forms(name, alpha):
    W = make_product(name, "flat-torus", 2, 0.0)
    summ = ambient.profile_summary(W)
    assert summ["alpha_closed"] == alpha
    # the sampled sup must agree with the registered closed form
    assert abs(summ["alpha_sampled"] - alpha) <= 1e-6


def test_sin_profile_alpha_sampled_only():
    W = make_product("sin", "flat-torus", 2, 0.0)
    summ = ambient.profile_summary(W)
    assert summ["alpha_closed"] is None
    # rho = 1 + e sin t: rho'^2 - rho'' rho = e^2 cos^2 + e sin (1 + e sin)
    # attains its max where the sampled search should land
    ts = np.linspace(W.profile.t_min, W.profile.t_max, 200001)
    e = 0.5
    q = (e * np.cos(ts)) ** 2 + e * np.sin(ts) * (1.0 + e * np.sin(ts))
    assert abs(summ["alpha"] - float(np.max(q))) <= 1e-7


def test_profile_summary_sign_verdicts():
    cosh = ambient.profile_summary(make_product("cosh", "flat-torus", 2, 0.0))
    assert cosh["dhcal_sign"] == "positive"
    assert cosh["hcal_sign"] == "sign-changing"
    exp = ambient.profile_summary(make_product("exp", "flat-torus", 2, 0.0))
    assert exp["dhcal_sign"] == "nonnegative"
    assert exp["hcal_sign"] == "positive"
    lin = ambient.profile_summary(make_product("linear", "round-sphere", 2, 1.0))
    assert lin["dhcal_sign"] == "negative"


def test_unknown_profile_names_the_registry():
    with pytest.raises(KeyError, match="registered profiles"):
        ambient.builtin_profile("parabola")


def test_profile_must_stay_positive():
    with pytest.raises(ValueError, match="positive"):
        ambient.WarpingProfile(
            name="bad", t_min=-1.0, t_max=1.0,
            rho=lambda t: np.asarray(t, dtype=float),
            drho=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            d2rho=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            sigma=lambda t: 0.5 * np.asarray(t, dtype=float) ** 2)


def test_warping_eval_out_of_interval():
    W = make_product("cosh", "flat-torus", 2, 0.0)
    with pytest.raises(ValueError, match="interval"):
        ambient.warping_eval(W, 4.0)


# ---------------------------------------------------------------------------
# fiber charts
# ---------------------------------------------------------------------------

def _christoffel_fd(fiber, x, h=1e-6):
    """FD oracle: Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    n = fiber.n
    x = np.asarray(x, dtype=float)
    dg = np.zeros((n, n, n))  # dg[l, i, j] = d_l g_ij
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        dg[l] = (fiber.metric(x + e) - fiber.metric(x - e)) / (2.0 * h)
    ginv = fiber.inverse_metric(x)
    gam = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                gam[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(n))
    return gam


@pytest.mark.parametrize("chart,kappa,x", [
    ("round-sphere", 1.0, [1.1, 0.7]),
    ("round-sphere", 0.25, [1.9, 2.0]),
    ("hyperbolic", -1.0, [0.8, 1.3]),
    ("hyperbolic", -4.0, [0.6, 0.2]),
])
def test_christoffel_matches_metric_differencing(chart, kappa, x):
    fiber = ambient.FiberSpec(n=2, kappa=kappa, chart=chart)
    closed = fiber.christoffel(np.asarray(x))
    oracle = _christoffel_fd(fiber, x)
    assert np.max(np.abs(closed - oracle)) <= 1e-8


def test_flat_torus_christoffel_vanishes():
    fiber = ambient.FiberSpec(n=3, kappa=0.0, chart="flat-torus")
    x = np.array([0.3, 1.0, 2.2])
    assert np.max(np.abs(fiber.christoffel(x))) == 0.0
    assert np.max(np.abs(_christoffel_fd(fiber, x))) <= 1e-12


def test_torus_distance_wraps():
    fiber = ambient.FiberSpec(n=2, kappa=0.0, chart="flat-torus",
                              lengths=(2.0, 4.0))
    x = np.array([1.9, 0.1])
    origin = np.array([0.1, 3.9])
    # wrapped displacement is (-0.2, 0.2)
    assert abs(float(fiber.distance(x, origin)) - math.hypot(0.2, 0.2)) <= 1e-12


@pytest.mark.parametrize("chart,kappa,origin", [
    ("flat-torus", 0.0, (0.5, 1.0)),
    ("round-sphere", 1.0, (1.3, 0.4)),
    ("round-sphere", 0.25, (0.9, 5.0)),
    ("hyperbolic", -1.0, (1.2, 2.5)),
])
def test_gamma_hat_derivatives_match_differencing(chart, kappa, origin):
    if chart == "flat-torus":
        fiber = ambient.FiberSpec(n=2, kappa=kappa, chart=chart)
    else:
        fiber = ambient.FiberSpec(n=2, kappa=kappa, chart=chart)
    rng = np.random.default_rng(5)
    box = fiber.default_box()
    h = 1e-5
    checked = 0
    for _ in range(40):
        x = np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in box])
        gamma, dgamma, hess, window = fiber.gamma_hat_data(x, origin)
        if not bool(window):
            continue
        checked += 1
        # gradient against central differences of gamma itself
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            gp = fiber.gamma_hat_data(x + e, origin)[0]
            gm = fiber.gamma_hat_data(x - e, origin)[0]
            fd = (gp - gm) / (2.0 * h)
            assert abs(dgamma[i] - fd) <= 5e-7 * max(1.0, abs(fd))
        # covariant Hessian: d_i d_j gamma - Gamma^k_ij d_k gamma
        gam = fiber.christoffel(x)
        for i in range(2):
            for j in range(2):
                ei, ej = np.zeros(2), np.zeros(2)
                ei[i] = h
                ej[j] = h
                gpp = fiber.gamma_hat_data(x + ei + ej, origin)[0]
                gpm = fiber.gamma_hat_data(x + ei - ej, origin)[0]
                gmp = fiber.gamma_hat_data(x - ei + ej, origin)[0]
                gmm = fiber.gamma_hat_data(x - ei - ej, origin)[0]
                dij = (gpp - gpm - gmp + gmm) / (4.0 * h * h)
                cov = dij - sum(gam[k, i, j] * dgamma[k] for k in range(2))
                assert abs(hess[i, j] - cov) <= 2e-4 * max(1.0, abs(cov))
    assert checked >= 10


# ---------------------------------------------------------------------------
# curvature of the product
# ---------------------------------------------------------------------------

def _ambient_inner(rho2, u, v):
    return u[0] * v[0] + rho2 * np.dot(u[1:], v[1:])


def _orthonormal_pair(rng, rho2, n):
    """Gram-Schmidt a random pair under u0 v0 + rho^2 u_f . v_f."""
    while True:
        u = rng.normal(size=n + 1)
        v = rng.normal(size=n + 1)
        u = u / math.sqrt(_ambient_inner(rho2, u, u))
        v = v - _ambient_inner(rho2, u, v) * u
        nv = _ambient_inner(rho2, v, v)
        if nv > 1e-6:
            return u, v / math.sqrt(nv)


def test_exponential_product_is_hyperbolic():
    # rho = e^t over a flat fiber: every sectional curvature equals -1
    W = make_product("exp", "flat-torus", 2, 0.0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = rng.uniform(-2.0, 2.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = _orthonormal_pair(rng, rho2, 2)
        K = ambient.ambient_curvature(W, t, u, v, mode="sectional")
        assert abs(K - (-1.0)) <= 1e-10


def test_cone_over_unit_sphere_is_flat():
    # rho = t over the unit round sphere: polar coordinates on flat space
    W = make_product("linear", "round-sphere", 2, 1.0)
    rng = np.random.default_rng(43)
    for _ in range(100):
        t = rng.uniform(0.5, 8.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = _orthonormal_pair(rng, rho2, 2)
        K = ambient.ambient_curvature(W, t, u, v, mode="sectional")
        assert abs(K) <= 1e-10


def test_sectional_routes_agree():
    # closed-form sectional vs contraction of the full tensor
    W = make_product("cosh", "hyperbolic", 2, -1.0)
    rng = np.random.default_rng(44)
    for _ in range(50):
        t = rng.uniform(-2.0, 2.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = _orthonormal_pair(rng, rho2, 2)
        closed = ambient.ambient_curvature(W, t, u, v, mode="sectional")
        contracted = ambient.sectional_from_tensor(W, t, u, v)
        assert abs(closed - contracted) <= 1e-10 * max(1.0, abs(closed))


def test_sectional_rejects_skew_pairs():
    W = make_product("exp", "flat-torus", 2, 0.0)
    with pytest.raises(ValueError, match="orthonormal"):
        ambient.ambient_curvature(W, 0.0, np.array([1.0, 0, 0]),
                                  np.array([1.0, 1.0, 0]), mode="sectional")


@pytest.mark.parametrize("name,chart,kappa", [
    ("cosh", "flat-torus", 0.0),
    ("exp", "round-sphere", 1.0),
    ("sin", "hyperbolic", -1.0),
])
def test_curvature_tensor_symmetries(name, chart, kappa):
    W = make_product(name, chart, 2, kappa)
    rng = np.random.default_rng(45)
    lo, hi = W.profile.t_min + 0.3, W.profile.t_max - 0.3
    for _ in range(25):
        t = rng.uniform(lo, hi)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        vecs = [rng.normal(size=3) for _ in range(4)]
        u, v, w, z = vecs
        R = lambda a, b, c: ambient.ambient_curvature(W, t, a, b, c, mode="tensor")
        inner = lambda a, b: _ambient_inner(rho2, a, b)
        scale = max(1.0, max(np.max(np.abs(x)) for x in vecs) ** 4)
        # antisymmetry in the first two slots
        assert np.max(np.abs(R(u, v, w) + R(v, u, w))) <= 1e-10 * scale
        # pair symmetry <R(u,v)w, z> = <R(w,z)u, v>
        assert abs(inner(R(u, v, w), z) - inner(R(w, z, u), v)) <= 1e-10 * scale
        # first Bianchi identity
        cyc = R(u, v, w) + R(v, w, u) + R(w, u, v)
        assert np.max(np.abs(cyc)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,t", [("cosh", 0.7), ("exp", -1.2), ("sin", 2.0)])
def test_slice_geometry_closed_form(name, t):
    W = make_product(name, "flat-torus", 3, 0.0)
    sl = ambient.slice_geometry(W, t)
    h = float(W.profile.hcal(t))
    assert sl.theta == -1.0
    assert np.max(np.abs(sl.shape_operator - h * np.eye(3))) <= 1e-15
    for k in range(4):
        assert abs(sl.H[k] - h ** k) <= 1e-13 * max(1.0, abs(h) ** k)
    assert np.max(np.abs(sl.grad_h)) == 0.0


def test_fiber_spec_validation():
    with pytest.raises(ValueError, match="kappa"):
        ambient.FiberSpec(n=2, kappa=1.0, chart="flat-torus")
    with pytest.raises(ValueError, match="two-dimensional"):
        ambient.FiberSpec(n=3, kappa=1.0, chart="round-sphere")
    with pytest.raises(ValueError, match="unknown chart"):
        ambient.FiberSpec(n=2, kappa=0.0, chart="cube")
    with pytest.raises(ValueError, match="kappa"):
        ambient.FiberSpec(n=2, kappa=0.5, chart="hyperbolic")
    for lengths in ((0.0, 1.0), (1.0, -2.0), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="lengths"):
            ambient.FiberSpec(n=2, kappa=0.0, chart="flat-torus",
                              lengths=lengths)
