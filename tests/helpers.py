"""Shared builders for the test suite."""

import numpy as np

import warpcurv as wc
from warpcurv.hypersurface import random_height_function


# the chart of each fiber that parametrized tests name in their ids: the
# round sphere and hyperbolic space share the conformally flat chart
CHART = {"flat-torus": "flat-torus", "round-sphere": "space-form",
         "hyperbolic": "space-form"}


def make_product(profile="cosh", chart="flat-torus", n=2, kappa=0.0,
                 **params):
    return wc.WarpedProduct(
        profile=wc.builtin_profile(profile, **params),
        fiber=wc.FiberSpec(n=n, kappa=kappa, chart=chart))


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
