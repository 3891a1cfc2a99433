"""Metamorphic relations that hold bit for bit on a flat torus.

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
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_product, random_immersion
from warpcurv.hypersurface import GeometryGrid, GraphImmersion, evaluate_geometry
from warpcurv.operators import height_sigma_identities

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
