"""Ambient layer: profiles, fiber charts, curvature tensor."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (CHART, ambient_inner, make_product, orthonormal_pair,
                     point_curvature, point_sectionals)
from warpcurv import ambient


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------

def test_exp_profile_closed_forms():
    p = ambient.builtin_profile("exp")
    ts = np.linspace(-2.5, 2.5, 41)
    assert np.allclose(p.hcal(ts), 1.0, atol=1e-14)
    assert np.allclose(p.dhcal(ts), 0.0, atol=1e-14)
    assert np.allclose(p.sigma(ts), np.exp(ts) - 1.0, atol=1e-12)


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
        assert abs(float(p.sigma(t)) - ref) <= 1e-9 + 10 * err


@pytest.mark.parametrize("name,alpha", [
    ("exp", 0.0), ("cosh", -1.0), ("linear", 1.0), ("const", 0.0),
])
def test_alpha_closed_forms(name, alpha):
    W = make_product(name, "flat-torus", 2, 0.0)
    summ = ambient.profile_summary(W)
    assert summ["alpha_closed"] == alpha
    # the sampled sup must agree with the registered closed form
    assert abs(summ["alpha_sampled"] - alpha) <= 1e-6


def test_profile_summary_is_kept_per_ambient_and_profile(monkeypatch):
    # a second call on the same W runs no search and returns an equal,
    # separate dict; a replaced profile is searched again, and another
    # instance keeps its own summary
    searches = []
    golden_max = ambient.golden_max

    def counted(fn, a, b):
        searches.append((a, b))
        return golden_max(fn, a, b)

    monkeypatch.setattr(ambient, "golden_max", counted)
    W = make_product("sin", "flat-torus", 2, 0.0)
    first = ambient.profile_summary(W)
    first["alpha"] = None
    second = ambient.profile_summary(W)
    assert len(searches) == 1
    assert second["alpha"] == second["alpha_sampled"] is not None
    W.profile = ambient.builtin_profile("exp")
    assert ambient.profile_summary(W)["alpha"] == 0.0
    assert len(searches) == 2
    ambient.profile_summary(make_product("sin", "flat-torus", 2, 0.0))
    assert len(searches) == 3


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


def _space_forms(point):
    """(fiber, kappa, point) for n = 2, then 3, and kappa = 1, 1/4, -1, -4:
    the fiber is the round sphere or hyperbolic space, and ``point`` is
    scaled by 1/sqrt|kappa| to the same place relative to the curvature."""
    return [(("round-sphere" if kappa > 0 else "hyperbolic"), kappa,
             [c / math.sqrt(abs(kappa)) for c in point[:n]])
            for n in (2, 3) for kappa in (1.0, 0.25, -1.0, -4.0)]


@pytest.mark.parametrize("fiber,kappa,x",
                         _space_forms((0.35, -0.2, 0.25)))
def test_christoffel_matches_metric_differencing(fiber, kappa, x):
    fiber = ambient.FiberSpec(n=len(x), kappa=kappa, chart=CHART[fiber])
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
    distance = fiber.gamma_hat_data(x, origin)[0] ** 0.5
    assert abs(float(distance) - math.hypot(0.2, 0.2)) <= 1e-12


@pytest.mark.parametrize("fiber,kappa,origin",
                         [("flat-torus", 0.0, [0.5, 1.0])]
                         + _space_forms((0.3, -0.25, 0.2)))
def test_gamma_hat_derivatives_match_differencing(fiber, kappa, origin):
    n = len(origin)
    fiber = ambient.FiberSpec(n=n, kappa=kappa, chart=CHART[fiber])
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
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            gp = fiber.gamma_hat_data(x + e, origin)[0]
            gm = fiber.gamma_hat_data(x - e, origin)[0]
            fd = (gp - gm) / (2.0 * h)
            assert abs(dgamma[i] - fd) <= 5e-7 * max(1.0, abs(fd))
        # covariant Hessian: d_i d_j gamma - Gamma^k_ij d_k gamma
        gam = fiber.christoffel(x)
        for i in range(n):
            for j in range(n):
                ei, ej = np.zeros(n), np.zeros(n)
                ei[i] = h
                ej[j] = h
                gpp = fiber.gamma_hat_data(x + ei + ej, origin)[0]
                gpm = fiber.gamma_hat_data(x + ei - ej, origin)[0]
                gmp = fiber.gamma_hat_data(x - ei + ej, origin)[0]
                gmm = fiber.gamma_hat_data(x - ei - ej, origin)[0]
                dij = (gpp - gpm - gmp + gmm) / (4.0 * h * h)
                cov = dij - sum(gam[k, i, j] * dgamma[k] for k in range(n))
                assert abs(hess[i, j] - cov) <= 2e-4 * max(1.0, abs(cov))
    assert checked >= 10


# ---------------------------------------------------------------------------
# curvature of the product
# ---------------------------------------------------------------------------

def test_exponential_product_is_hyperbolic():
    # rho = e^t over a flat fiber: every sectional curvature equals -1
    W = make_product("exp", "flat-torus", 2, 0.0)
    rng = np.random.default_rng(42)
    for _ in range(100):
        t = rng.uniform(-2.0, 2.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = orthonormal_pair(rng, rho2, 2)
        for K in point_sectionals(W, t, u, v):
            assert abs(K - (-1.0)) <= 1e-10


def test_cone_over_unit_sphere_is_flat():
    # rho = t over the unit round sphere: polar coordinates on flat space
    W = make_product("linear", "space-form", 2, 1.0)
    rng = np.random.default_rng(43)
    for _ in range(100):
        t = rng.uniform(0.5, 8.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = orthonormal_pair(rng, rho2, 2)
        for K in point_sectionals(W, t, u, v):
            assert abs(K) <= 1e-10


def test_sectional_routes_agree():
    # closed-form sectional vs contraction of the full tensor
    W = make_product("cosh", "space-form", 2, -1.0)
    rng = np.random.default_rng(44)
    for _ in range(50):
        t = rng.uniform(-2.0, 2.0)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        u, v = orthonormal_pair(rng, rho2, 2)
        closed, contracted = point_sectionals(W, t, u, v)
        assert abs(closed - contracted) <= 1e-10 * max(1.0, abs(closed))


@pytest.mark.parametrize("name,fiber,kappa", [
    ("cosh", "flat-torus", 0.0),
    ("exp", "round-sphere", 1.0),
    ("sin", "hyperbolic", -1.0),
])
def test_curvature_tensor_symmetries(name, fiber, kappa):
    W = make_product(name, CHART[fiber], 2, kappa)
    rng = np.random.default_rng(45)
    lo, hi = W.profile.t_min + 0.3, W.profile.t_max - 0.3
    for _ in range(25):
        t = rng.uniform(lo, hi)
        rho2 = float(ambient.warping_eval(W, t).rho) ** 2
        vecs = [rng.normal(size=3) for _ in range(4)]
        u, v, w, z = vecs
        R = lambda a, b, c: point_curvature(W, t, a, b, c)
        inner = lambda a, b: ambient_inner(rho2, a, b)
        scale = max(1.0, max(np.max(np.abs(x)) for x in vecs) ** 4)
        # antisymmetry in the first two slots
        assert np.max(np.abs(R(u, v, w) + R(v, u, w))) <= 1e-10 * scale
        # pair symmetry <R(u,v)w, z> = <R(w,z)u, v>
        assert abs(inner(R(u, v, w), z) - inner(R(w, z, u), v)) <= 1e-10 * scale
        # first Bianchi identity
        cyc = R(u, v, w) + R(v, w, u) + R(w, u, v)
        assert np.max(np.abs(cyc)) <= 1e-10 * scale


def _grid_kernel_inputs(shape=(5, 4, 3), n=3, seed=46):
    """Random non-orthogonal U, V, W on a grid, a per-node SPD fiber
    metric, and node-dependent rho, hcal, dhcal."""
    rng = np.random.default_rng(seed)
    U, V, Wv = (rng.normal(size=shape + (n + 1,)) for _ in range(3))
    A = rng.normal(size=shape + (n, n))
    gfib = A @ np.swapaxes(A, -1, -2) + n * np.eye(n)
    rho = rng.uniform(0.5, 2.0, size=shape)
    hcal = rng.normal(size=shape)
    dhcal = rng.normal(size=shape)
    return -0.7, rho, hcal, dhcal, gfib, U, V, Wv


def test_batched_curvature_tensor_matches_a_loop_over_nodes():
    kappa, rho, hcal, dhcal, gfib, U, V, Wv = _grid_kernel_inputs()
    got = ambient.curvature_tensor_components(kappa, rho, hcal, dhcal, gfib,
                                              U, V, Wv)
    T = np.zeros(U.shape[-1])
    T[0] = 1.0
    expected = np.zeros(U.shape)
    for idx in np.ndindex(rho.shape):
        G, r2 = gfib[idx], rho[idx] ** 2
        u, v, w = U[idx], V[idx], Wv[idx]

        def fib(a, b):
            return a[1:] @ G @ b[1:]

        def amb(a, b):
            return a[0] * b[0] + r2 * fib(a, b)

        uw, vw = amb(u, w), amb(v, w)
        assert abs(uw) > 1e-3 and abs(vw) > 1e-3   # no term drops out
        R = np.zeros_like(u)
        R[1:] = kappa * (fib(v, w) * u[1:] - fib(u, w) * v[1:])
        R -= hcal[idx] ** 2 * (vw * u - uw * v)
        R += dhcal[idx] * amb(w, T) * (amb(u, T) * v - amb(v, T) * u)
        R -= dhcal[idx] * (vw * amb(u, T) - uw * amb(v, T)) * T
        expected[idx] = R
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_batched_curvature_tensor_is_exactly_antisymmetric():
    # every term is an IEEE difference whose operands swap with U and V
    kappa, rho, hcal, dhcal, gfib, U, V, Wv = _grid_kernel_inputs(seed=47)
    uv = ambient.curvature_tensor_components(kappa, rho, hcal, dhcal, gfib,
                                             U, V, Wv)
    vu = ambient.curvature_tensor_components(kappa, rho, hcal, dhcal, gfib,
                                             V, U, Wv)
    assert np.array_equal(vu, -uv)


def test_fiber_spec_validation():
    with pytest.raises(ValueError, match="kappa"):
        ambient.FiberSpec(n=2, kappa=1.0, chart="flat-torus")
    with pytest.raises(ValueError, match="kappa"):
        ambient.FiberSpec(n=2, kappa=0.0, chart="space-form")
    # the polar charts are gone; their boxes would silently change meaning
    for chart, kappa in (("round-sphere", 1.0), ("hyperbolic", -1.0)):
        with pytest.raises(ValueError, match="'space-form'"):
            ambient.FiberSpec(n=2, kappa=kappa, chart=chart)
    with pytest.raises(ValueError, match="unknown chart"):
        ambient.FiberSpec(n=2, kappa=0.0, chart="cube")
    for chart, kappa in (("flat-torus", 0.0), ("space-form", -1.0)):
        for n in (0, 9):
            with pytest.raises(ValueError, match=f"dimension n={n} outside"):
                ambient.FiberSpec(n=n, kappa=kappa, chart=chart)
    # box lengths belong to the torus; the curved chart refuses them
    with pytest.raises(ValueError, match="lengths"):
        ambient.FiberSpec(n=2, kappa=1.0, chart="space-form",
                          lengths=(1.0, 2.0))
    for lengths in ((0.0, 1.0), (1.0, -2.0), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="lengths"):
            ambient.FiberSpec(n=2, kappa=0.0, chart="flat-torus",
                              lengths=lengths)


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_space_form_chart_at_every_dimension(kappa):
    # the default box's corners sit at |x| sqrt|kappa| = 0.6, and the
    # closed-form symbols match differencing of the metric for every n
    for n in range(1, 9):
        fiber = ambient.FiberSpec(n=n, kappa=kappa, chart="space-form")
        assert fiber.periodic == (False,) * n
        corner = np.array([hi for _, hi in fiber.default_box()])
        assert math.sqrt(abs(kappa)) * np.linalg.norm(corner) == \
            pytest.approx(0.6, rel=1e-15)
        x = 0.5 * corner * np.cos(np.arange(n))
        assert np.max(np.abs(fiber.christoffel(x)
                             - _christoffel_fd(fiber, x))) <= 1e-8
        assert np.max(np.abs(fiber.inverse_metric(x) @ fiber.metric(x)
                             - np.eye(n))) <= 1e-15


def test_poincare_ball_origin_is_refused():
    fiber = ambient.FiberSpec(n=2, kappa=-4.0, chart="space-form")
    x = np.zeros((3, 2))
    with pytest.raises(ValueError, match="Poincare ball"):
        fiber.gamma_hat_data(x, (0.3, 0.4))     # |x| sqrt(-kappa) = 1
    assert fiber.gamma_hat_data(x, (0.3, 0.39))[0].shape == (3,)
