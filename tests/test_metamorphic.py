"""Metamorphic relations that hold bit for bit on a flat torus and, for
the parity of the height, on a space form.

On a periodic grid the stencils commute with whole-node shifts and with
the reflection of the node index, and every other step of the geometry
is per-node algebra.  So moving the nodes of the height grid must move
each field the geometry stores, and each residual grid built from them,
to the same bits: no tolerance enters.

* Rolling ``u`` by s nodes along an axis rolls every ``GeometryGrid``
  array field and every ``height_sigma_identities`` grid (k = 0, 1).
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
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_product, random_immersion
from warpcurv.hypersurface import GeometryGrid, GraphImmersion, evaluate_geometry
from warpcurv.operators import height_sigma_identities
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
    old, new = (_array_fields(evaluate_geometry(i)) for i in (imm, rolled))
    assert set(old) == {f.name for f in dataclasses.fields(GeometryGrid)} \
        - {"imm", "cfg", "_memo"}
    for name, X in old.items():
        on_grid = X.shape[:n] == imm.shape
        assert _same(new[name], roll(X) if on_grid else X), name
    old, new = _sigma_grids(imm), _sigma_grids(rolled)
    assert len(old) == 8
    for key, grid in old.items():
        assert _same(new[key], roll(grid)), key


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
