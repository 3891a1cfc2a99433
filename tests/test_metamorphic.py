"""Metamorphic relations that hold bit for bit on a flat torus and, for
the parity of the height, on a space form.

On a periodic grid the stencils commute with whole-node shifts and with
the reflection of the node index, and every other step of the geometry
is per-node algebra.  So moving the nodes of the height grid must move
each field the geometry stores, and each residual grid built from them,
to the same bits: no tolerance enters.

* Rolling ``u`` by s nodes along an axis rolls every ``GeometryGrid``
  array field, every ``height_sigma_identities`` grid (k = 0, 1) and
  every grid of the five other identity suites, and keeps the least
  eigenvalue of ``calligraphic_ops`` and the least H_k of ``frak_phi``.
* Reflecting node i to -i mod N along an axis negates the frame and the
  chart components of that axis exactly, so it maps the scalars H,
  ``kappas``, Theta and the ``height_sigma_identities`` grids to their
  reflections.

Two graphs are used: ``cosh`` x torus, n = 2 at 24^2, and ``exp`` x
torus, n = 3 at 12^3, both seed 3 with ``max_mode`` 2.  The axis and the
shift are drawn by ``hypothesis``.

The profile ``cosh`` is even, so t -> -t is an isometry of ``cosh`` x
torus and of ``cosh`` x space form (kappa = +-1), and it maps the graph
of u to the graph of -u.  With the same orientation, H_k -> (-1)^k H_k,
``kappas`` -> -``kappas`` reversed and Theta is unchanged; with the
orientation flipped too, H and ``kappas`` are unchanged and Theta
changes sign.  These hold bit for bit except H_k at n = 3 under the
same orientation, which holds to a stated rounding bound.  The random
graphs (n = 2 at 24^2, n = 3 at 12^3 on the torus and 24^3 on a space
form, ``max_mode`` 2) take their fiber and seed from ``hypothesis``.

Two isometries hold only to rounding, on seed-3 graphs with ``max_mode``
2, so each is checked against a stated bound:

* the horospherical isometry (t, x) -> (t + c, e^-c x) of ``exp`` x
  torus (hyperbolic space) maps the graph of u over a box of length L to
  the graph of u + c over the box of length e^-c L, node for node;
* on the symmetric ``space-form`` box, x_0 -> -x_0 is an isometry of the
  fiber for either sign of kappa, and maps the graph of u to the graph
  of u with its node order reversed along axis 0.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_product, random_immersion
from warpcurv.ambient import FiberSpec, WarpedProduct
from warpcurv.hypersurface import (
    GeometryGrid,
    GraphImmersion,
    evaluate_geometry,
    structure_identities,
)
from warpcurv.operators import (
    IdentityResidual,
    calligraphic_ops,
    div_pk,
    frak_phi,
    height_sigma_identities,
    theta_hat_identity,
)
from warpcurv.symfun import elementary_symmetric_batch, h_from_s

CASES = {2: ("cosh", 24), 3: ("exp", 12)}


@functools.lru_cache(maxsize=None)
def _immersion(n):
    profile, res = CASES[n]
    W = make_product(profile, "flat-torus", n, 0.0)
    return random_immersion(W, seed=3, res=res, max_mode=2)


def _moved(imm, move):
    """The immersion of the moved height grid, on the same box."""
    return GraphImmersion(W=imm.W, u=move(imm.u), box=imm.box,
                          periodic=imm.periodic)


def _sigma_grids(imm):
    geom = evaluate_geometry(imm)
    return {(k, name): residual.grid for k in (0, 1)
            for name, residual in height_sigma_identities(
                None, k, geom=geom).items()}


def _suite_results(geom):
    """Every grid of the identity suites other than
    ``height_sigma_identities``, and the scalars a roll keeps, by suite,
    k and key: ``structure_identities``, ``div_pk`` (k = 1..n-1),
    ``theta_hat_identity`` (k = 0..n-1), ``calligraphic_ops`` (k = 2..n)
    with its least eigenvalue and ``frak_phi`` (k = 1..n) with the least
    H_k where it is not applicable."""
    n = geom.n
    suites = [("structure", None, structure_identities(geom))]
    suites += [(suite.__name__, k, suite(None, k, geom=geom))
               for suite, ks in ((div_pk, range(1, n)),
                                 (theta_hat_identity, range(n)),
                                 (calligraphic_ops, range(2, n + 1)),
                                 (frak_phi, range(1, n + 1)))
               for k in ks]
    grids, scalars = {}, {}
    for suite, k, result in suites:
        for key, value in result.items():
            if isinstance(value, IdentityResidual):
                value = value.grid
            elif isinstance(value, dict) and "grid" in value:
                value = value["grid"]
            if isinstance(value, np.ndarray):
                grids[suite, k, key] = value
            elif key in ("min_eigenvalue", "min_Hk"):
                scalars[suite, k, key] = value
    return grids, scalars


def _array_fields(geom):
    return {f.name: getattr(geom, f.name) for f in dataclasses.fields(geom)
            if isinstance(getattr(geom, f.name), np.ndarray)}


def _same(new, old):
    return new.shape == old.shape and np.array_equal(new, old)


cases = st.sampled_from(sorted(CASES))


@given(n=cases, data=st.data())
@settings(max_examples=12, deadline=None)
def test_rolling_the_heights_rolls_every_field(n, data):
    imm = _immersion(n)
    axis = data.draw(st.integers(0, n - 1), label="axis")
    shift = data.draw(st.integers(1, imm.shape[axis] - 1), label="shift")

    def roll(X):
        return np.roll(X, shift, axis)

    rolled = _moved(imm, roll)
    geoms = [evaluate_geometry(i) for i in (imm, rolled)]
    old, new = (_array_fields(geom) for geom in geoms)
    assert set(old) == {f.name for f in dataclasses.fields(GeometryGrid)} \
        - {"imm", "cfg", "_memo"}
    for name, X in old.items():
        on_grid = X.shape[:n] == imm.shape
        assert _same(new[name], roll(X) if on_grid else X), name
    old, new = _sigma_grids(imm), _sigma_grids(rolled)
    assert len(old) == 8
    for key, grid in old.items():
        assert _same(new[key], roll(grid)), key
    (old, old_scalars), (new, new_scalars) = map(_suite_results, geoms)
    # every suite and k contributes: 1 + (n - 1) + n + (n - 1) + n runs
    assert len({key[:2] for key in [*old, *old_scalars]}) == 4 * n - 1
    assert set(new) == set(old)
    for key, grid in old.items():
        assert _same(new[key], roll(grid)), key
    assert new_scalars == old_scalars


@given(n=cases, data=st.data())
@settings(max_examples=6, deadline=None)
def test_reflecting_the_nodes_maps_the_scalars(n, data):
    imm = _immersion(n)
    axis = data.draw(st.integers(0, n - 1), label="axis")
    size = imm.shape[axis]

    def reflect(X):
        return np.take(X, -np.arange(size) % size, axis)

    reflected = _moved(imm, reflect)
    old, new = (evaluate_geometry(i) for i in (imm, reflected))
    for name in ("H", "kappas", "theta"):
        assert _same(getattr(new, name), reflect(getattr(old, name))), name
    old, new = _sigma_grids(imm), _sigma_grids(reflected)
    for key, grid in old.items():
        assert _same(new[key], reflect(grid)), key


# ---------------------------------------------------------------------------
# parity: t -> -t on cosh x torus and cosh x space form
# ---------------------------------------------------------------------------

# resolution per (chart, kappa) and n: a 12^3 space-form grid has no node
# the order-4 stencils audit, so every residual maximum would be NaN
PARITY_RES = {("flat-torus", 0.0): {2: 24, 3: 12},
              ("space-form", 1.0): {2: 24, 3: 24},
              ("space-form", -1.0): {2: 24, 3: 24}}


def _mirrored_pair(fiber, n, seed, orientation):
    """Geometries of the graph u on ``cosh`` x ``fiber`` (a chart and its
    kappa) and of the graph -u with ``orientation`` (the first has
    orientation +1)."""
    chart, kappa = fiber
    W = make_product("cosh", chart, n, kappa)
    imm = random_immersion(W, seed=seed, res=PARITY_RES[fiber][n], max_mode=2)
    mirrored = GraphImmersion(W=imm.W, u=-imm.u, box=imm.box,
                              periodic=imm.periodic, orientation=orientation)
    return evaluate_geometry(imm), evaluate_geometry(mirrored)


def _sigma_maxima(geom):
    return {(k, name): residual.max for k in (0, 1)
            for name, residual in height_sigma_identities(
                None, k, geom=geom).items()}


seeds = st.integers(0, 2 ** 16)
fibers = st.sampled_from(sorted(PARITY_RES))


@given(fiber=fibers, n=cases, seed=seeds)
@settings(max_examples=12, deadline=None)
def test_mirroring_the_height_maps_the_curvatures(fiber, n, seed):
    # with the same orientation the mirror turns the normal's T component
    # and so every principal curvature: kappas -> -kappas, reversed to
    # stay ascending, and H_k -> (-1)^k H_k
    old, new = _mirrored_pair(fiber, n, seed, 1)
    assert _same(new.kappas, -old.kappas[..., ::-1])
    assert _same(new.theta, old.theta)
    signed = (-1.0) ** np.arange(n + 1) * old.H
    if n == 2:
        # S_1 and S_2 of two curvatures do not depend on their order
        assert _same(new.H, signed)
        assert _sigma_maxima(new) == _sigma_maxima(old)
        return
    # elementary_symmetric_batch accumulates S_k over the curvatures in
    # index order, and the mirror reverses the order, so H_k differs at
    # rounding (seen, about 2 eps of the scale below).  Each order's S_k
    # is within gamma_2n of the exact value, relative to S_k of |kappas|,
    # and the normalization adds one rounding: (2n + 1) eps bounds the gap
    scale = h_from_s(elementary_symmetric_batch(np.abs(old.kappas)))
    gap = np.abs(new.H - signed)
    assert np.all(gap <= (2 * n + 1) * np.finfo(float).eps * scale)


@given(fiber=fibers, n=cases, seed=seeds)
@settings(max_examples=12, deadline=None)
def test_mirroring_with_the_opposite_normal_keeps_the_curvatures(fiber, n,
                                                                 seed):
    # flipping the orientation as well undoes the turn of the normal:
    # the curvatures are unchanged and only Theta = <N, d/dt> changes sign
    old, new = _mirrored_pair(fiber, n, seed, -1)
    for name in ("H", "kappas"):
        assert _same(getattr(new, name), getattr(old, name)), name
    assert _same(new.theta, -old.theta)
    assert _sigma_maxima(new) == _sigma_maxima(old)


# ---------------------------------------------------------------------------
# isometries that hold to rounding
# ---------------------------------------------------------------------------

def _largest_gaps(new, old, move, where):
    """Largest absolute gap of H, ``kappas`` and Theta between ``new`` and
    the moved ``old`` fields, over the nodes ``where``."""
    return {name: float(np.max(np.abs(
        getattr(new, name) - move(getattr(old, name)))[where]))
        for name in ("H", "kappas", "theta")}


@pytest.mark.parametrize("c", [math.log(2.0), 0.37], ids=["ln2", "0.37"])
@pytest.mark.parametrize("n", [2, 3])
def test_the_horospherical_isometry_keeps_the_curvatures(n, c):
    # on exp x torus, t -> t + c scales rho by e^c and x -> e^-c x scales
    # the chart metric by e^-2c, so the graph of u + c over the shrunk box
    # is the same hypersurface with the same nodes.  Not bit for bit: the
    # spacing e^-c h, the heights u + c and rho(u + c) = e^c rho(u) are
    # each rounded, and the stencils divide by the new spacing.  Seen on
    # these graphs: H to 1.6e-14, kappas to 8.3e-15, Theta to 1 eps, and
    # the residual maxima to 1e-11 relative
    W = make_product("exp", "flat-torus", n, 0.0)
    imm = random_immersion(W, seed=3, res=CASES[n][1], max_mode=2)
    s = math.exp(-c)
    shrunk = WarpedProduct(profile=W.profile, fiber=FiberSpec(
        n=n, kappa=0.0, chart="flat-torus",
        lengths=tuple(s * L for L in W.fiber.lengths)))
    moved = GraphImmersion(W=shrunk, u=imm.u + c,
                           box=tuple((s * lo, s * hi) for lo, hi in imm.box),
                           periodic=imm.periodic)
    old, new = (evaluate_geometry(i) for i in (imm, moved))
    gaps = _largest_gaps(new, old, lambda X: X, ...)
    assert gaps["H"] <= 1e-13 and gaps["kappas"] <= 1e-13, gaps
    assert gaps["theta"] <= 2 * np.finfo(float).eps, gaps
    pairs = [(height_sigma_identities(None, 1, geom=g)["height"].max,
              div_pk(None, 1, geom=g)["residual_ab"].max) for g in (old, new)]
    for before, after in zip(*pairs):
        assert abs(after - before) <= 1e-9 * before


@pytest.mark.parametrize("kappa", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_reflecting_the_space_form_box_keeps_the_curvatures(n, kappa):
    # the box is symmetric about 0 and the chart's conformal factor reads
    # |x|^2 only, so reversing the nodes of axis 0 reflects the graph.  Not
    # bit for bit: linspace's nodes lo + i h are not exact negatives of
    # the mirrored ones (10 to 12 of 24 differ), so the conformal factor
    # and its derivatives differ in their last bits.  Compared on the
    # audited nodes, away from the wrapped stencils.  Seen on seeds 3-10:
    # H to 2.7e-15 at n = 2 and 4.6e-14 at n = 3, where |H_3| reaches 120;
    # kappas to 3.6e-15; Theta to 1 eps
    W = make_product("cosh", "space-form", n, kappa)
    imm = random_immersion(W, seed=3, res=24, max_mode=2)

    def flip(X):
        return np.flip(X, 0)

    reflected = GraphImmersion(W=W, u=flip(imm.u), box=imm.box,
                               periodic=imm.periodic)
    old, new = (evaluate_geometry(i) for i in (imm, reflected))
    assert _same(new.interior, flip(old.interior))
    gaps = _largest_gaps(new, old, flip, new.interior)
    assert gaps["H"] <= (1e-14 if n == 2 else 1e-13), gaps
    assert gaps["kappas"] <= 1e-14, gaps
    assert gaps["theta"] <= 2 * np.finfo(float).eps, gaps
    after = _sigma_maxima(new)
    for key, before in _sigma_maxima(old).items():
        assert abs(after[key] - before) <= 1e-12 * before, key
