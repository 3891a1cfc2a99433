"""Shared builders and point-form curvature oracles for the test suite."""

import math

import numpy as np

import warpcurv as wc
from warpcurv.ambient import curvature_tensor_components, warping_eval
from warpcurv.hypersurface import random_height_function


# the chart of each fiber that parametrized tests name in their ids: the
# round sphere and hyperbolic space share the conformally flat chart
CHART = {"flat-torus": "flat-torus", "round-sphere": "space-form",
         "hyperbolic": "space-form"}


def make_product(profile="cosh", chart="flat-torus", n=2, kappa=0.0):
    return wc.WarpedProduct(
        profile=wc.builtin_profile(profile),
        fiber=wc.FiberSpec(n=n, kappa=kappa, chart=chart))


def inverse_metric(L_inv):
    """g^-1 = L^-T L^-1 from a stack of inverse Cholesky factors; a
    geometry stores no inverse metric."""
    return np.einsum("...ki,...kj->...ij", L_inv, L_inv)


def slice_immersion(W, t, res=24, orientation=1):
    return wc.GraphImmersion.from_function(
        W, lambda m: t + 0.0 * m[..., 0], res, orientation=orientation)


def random_immersion(W, seed, t_center=0.0, amplitude=0.15, res=24,
                     max_mode=1, orientation=1, box=None):
    if box is None:
        box = W.fiber.default_box()
    rng = np.random.default_rng(seed)
    dev = random_height_function(box, W.fiber.periodic, rng,
                                 amplitude=amplitude, max_mode=max_mode)
    return wc.GraphImmersion.from_function(
        W, lambda m: t_center + dev(m), res, box=box,
        orientation=orientation)


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def positive_definite(rng, n, shift=0.5):
    A = random_symmetric(rng, n)
    lo = float(np.min(np.linalg.eigvalsh(A)))
    return A + (shift - min(lo, 0.0)) * np.eye(n)


def ambient_inner(rho2, u, v):
    """<u, v> = u0 v0 + rho^2 u_f . v_f in an orthonormal fiber basis."""
    return u[0] * v[0] + rho2 * float(np.dot(u[1:], v[1:]))


def orthonormal_pair(rng, rho2, n):
    """Gram-Schmidt a random pair under ``ambient_inner``."""
    while True:
        u = rng.normal(size=n + 1)
        v = rng.normal(size=n + 1)
        u = u / math.sqrt(ambient_inner(rho2, u, u))
        v = v - ambient_inner(rho2, u, v) * u
        nv = ambient_inner(rho2, v, v)
        if nv > 1e-6:
            return u, v / math.sqrt(nv)


def point_curvature(W, t, u, v, w):
    """R(u, v)w at height t, components in an orthonormal fiber basis."""
    d = warping_eval(W, t)
    return curvature_tensor_components(W.fiber.kappa, d.rho, d.hcal, d.dhcal,
                                       np.eye(W.fiber.n), u, v, w)


def point_sectionals(W, t, u, v):
    """K(u, v) of an orthonormal pair twice: the closed form
    (kappa/rho^2)(1 - u0^2 - v0^2) - hcal^2 - hcal' (u0^2 + v0^2), and
    <R(u, v)v, u> contracted from the tensor."""
    d = warping_eval(W, t)
    rho2 = float(d.rho) ** 2
    s = u[0] ** 2 + v[0] ** 2
    closed = W.fiber.kappa / rho2 * (1.0 - s) - d.hcal ** 2 - d.dhcal * s
    return float(closed), ambient_inner(rho2, point_curvature(W, t, u, v, v), u)
