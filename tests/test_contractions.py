"""Per-node contractions against the einsum and matrix-product forms
they replaced.

The library runs its per-node n x n algebra component-major: the
primitives of ``warpcurv._grid`` (``dot``, ``matvec``, ``matmul``,
``contract_first``, ``trace_product``, ``lower_triangular_inverse`` and
``cholesky``) move the component axes first and sum whole-grid products,
as does the curvature kernel, and every tensor field of a geometry is
stored so that each component is one contiguous grid.
Each site is compared here with a test-side oracle written as the old
einsum or ``@`` form, on seeded stacks with n = 2 and 3, contiguous,
strided and component-major; the two must agree to 1e-13 of max|field|.
Each comparison whose operands are not all symmetric is also shown to
reject the result with one operand transposed, so it could not pass on
an index slip.  The Cholesky factor is checked against
``np.linalg.cholesky``, and its inverse against ``np.linalg.inv``, for
n = 1..8, an ill-conditioned metric included; a pivot that is not
positive must be refused.  The stencils must equal their ``np.roll``
forms, and the curvature kernel its oracle on the diagonal fiber metrics
the charts store, bit for bit.  A scan of the package pins every
``np.linalg`` call, the one factorization of the metric and every call
of the batched Jacobi solver, so that neither a spectrum the geometry
stores nor the triangular factor is solved again, and finds no unused
import and no private module-level name that nothing references.  It also finds no
public name that only the tests reach: none that nothing reached from the
benchmark files, the module-level code or ``cli.main`` reads.  Every
export must resolve, and ``__init__`` may import nothing it does not
export.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import warpcurv
from helpers import (inverse_metric, make_product, point_curvature,
                     random_immersion)
from warpcurv import operators
from warpcurv._grid import (cholesky, components, contract_first, diff, dot,
                            gradient, hessian, lower_triangular_inverse,
                            matmul, matvec, trace_product)
from warpcurv.ambient import curvature_tensor_components, warping_eval
from warpcurv.hypersurface import evaluate_geometry
from warpcurv.symfun import newton_family_batch

REL = 1e-13


def _agree(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.shape == old.shape and \
        float(np.max(np.abs(new - old))) <= REL * float(np.max(np.abs(old)))


def _t(M):
    return np.swapaxes(M, -1, -2)


@pytest.fixture(scope="module", params=[2, 3], ids=["n2-sphere", "n3-torus"])
def geom(request):
    """A curved-fiber graph for n = 2 and a flat 3-torus graph."""
    if request.param == 2:
        W = make_product("cosh", "space-form", 2, 0.25)
        imm = random_immersion(W, seed=4, t_center=0.7, amplitude=0.1, res=16)
    else:
        W = make_product("cosh", "flat-torus", 3, 0.0)
        imm = random_immersion(W, seed=4, t_center=0.7, amplitude=0.1, res=12)
    return evaluate_geometry(imm)


def _stacks(geom, seed):
    """Seeded non-symmetric matrix stack, its strided slice of a wider
    stack, and two vector stacks, all on the geometry's grid."""
    rng = np.random.default_rng(seed)
    shape, n = geom.u.shape, geom.n
    M = rng.normal(size=shape + (n, n))
    wide = rng.normal(size=shape + (n, n, n))
    v, w = rng.normal(size=(2,) + shape + (n,))
    return M, wide[..., 1, :, :], v, w


def _component_major(X, k):
    """X with equal values, stored with its last k axes first, as the
    component-major primitives leave their outputs."""
    grid = X.ndim - k
    first = tuple(range(grid, X.ndim)) + tuple(range(grid))
    return np.ascontiguousarray(X.transpose(first)).transpose(
        np.argsort(first))


def _layouts(X, k):
    return X, _component_major(X, k)


def test_primitives(geom):
    M, strided, v, w = _stacks(geom, 5)
    B = _stacks(geom, 6)[0]
    for A in (M, strided, _component_major(M, 2)):
        for x in _layouts(v, 1):
            assert _agree(dot(x, w), np.einsum("...i,...i->...", x, w))
            assert _agree(matvec(A, x),
                          np.einsum("...ij,...j->...i", A, x))
            assert _agree(matvec(_t(A), x),
                          np.einsum("...ji,...j->...i", A, x))
        for F in (B, _component_major(B, 2)):
            assert _agree(matmul(A, F), A @ F)
            assert _agree(matmul(_t(A), F), _t(A) @ F)
            assert _agree(trace_product(A, F),
                          np.einsum("...ij,...ji->...", A, F))
    T = np.random.default_rng(7).normal(size=M.shape + (geom.n, 2))
    for G in (T[..., 0], _component_major(T[..., 1], 3)):
        for x in _layouts(v, 1):
            assert _agree(contract_first(G, x),
                          np.einsum("...kij,...k->...ij", G, x))
    # a frame row broadcast over the grid, as the test vectors of div_pk
    unit = np.broadcast_to(np.eye(geom.n)[0], v.shape)
    assert _agree(matvec(M, unit), M[..., :, 0])
    assert not _agree(contract_first(np.swapaxes(T[..., 0], -3, -2), v),
                      np.einsum("...kij,...k->...ij", T[..., 0], v))
    assert not _agree(matvec(_t(M), v), np.einsum("...ij,...j->...i", M, v))
    assert not _agree(matmul(_t(M), B), M @ B)
    assert not _agree(trace_product(M, _t(B)),
                      np.einsum("...ij,...ji->...", M, B))


@pytest.mark.parametrize("n", [2, 3])
def test_primitives_on_one_node(n):
    # a single node, a stack of shape (n, n), gets the bits it gets as the
    # one node of a 1-node stack
    rng = np.random.default_rng(80 + n)
    A, B = rng.normal(size=(2, n, n))
    T = rng.normal(size=(n, n, n))
    v, w = rng.normal(size=(2, n))
    g = A @ A.T + np.eye(n)
    L = np.linalg.cholesky(g)
    S = rng.normal(size=n + 1)
    P, prev = [], np.eye(n)
    for k in range(1, n):
        prev = S[k] * np.eye(n) - A @ prev
        P.append(prev)
    cases = [
        (dot, (v, w), v @ w),
        (matvec, (A, v), A @ v),
        (matmul, (A, B), A @ B),
        (contract_first, (T, v), np.einsum("kij,k->ij", T, v)),
        (trace_product, (A, B), np.trace(A @ B)),
        (lower_triangular_inverse, (L,), np.linalg.inv(L)),
        (cholesky, (g,), L),
        (newton_family_batch, (A, S), np.stack(P)),
    ]
    for fn, args, oracle in cases:
        one = fn(*args)
        assert np.array_equal(one, fn(*(x[None] for x in args))[0])
        assert _agree(one, oracle)


def _ill_conditioned_metric(rng, n, shape):
    # a diagonal scaling over six decades makes cond(g) about 1e12
    A = rng.normal(size=shape + (n, n))
    A = A @ _t(A) + n * np.eye(n)
    d = np.logspace(0, 6, n)
    return d[:, None] * A * d[None, :]


@pytest.mark.parametrize("n", range(1, 9))
def test_lower_triangular_inverse(n):
    rng = np.random.default_rng(30 + n)
    shape = (5, 4)
    A = rng.normal(size=shape + (n, n))
    metrics = [A @ _t(A) + np.eye(n), _ill_conditioned_metric(rng, n, shape)]
    for g in metrics:
        L = np.linalg.cholesky(g)
        # contiguous, a strided slice and component-major storage
        padded = np.zeros(shape + (n, n + 1))
        padded[..., :n] = L
        for factor in (L, padded[..., :n], _component_major(L, 2)):
            L_inv = lower_triangular_inverse(factor)
            assert L_inv.shape == L.shape
            assert np.max(np.abs(L_inv @ L - np.eye(n))) <= REL
            assert np.all(np.triu(L_inv, 1) == 0.0)
            assert _agree(L_inv, np.linalg.inv(L))
        if n > 1:
            assert not _agree(lower_triangular_inverse(L),
                              np.linalg.inv(_t(L)))


@pytest.mark.parametrize("n", range(1, 9))
def test_cholesky_against_lapack(n):
    # both factors are backward stable, so each must reproduce g, and the
    # two agree, to a small multiple of n eps |g| per node (|g| its largest
    # entry; L carries the units of |g|^(1/2)).  Measured worst: 1.0 n eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(60 + n)
    shape = (5, 4)
    A = rng.normal(size=shape + (n, n))
    for g0 in (A @ _t(A) + np.eye(n), _ill_conditioned_metric(rng, n, shape)):
        for scale in (1e-150, 1.0, 1e150):
            g = scale * g0
            held = g.copy()
            L = cholesky(g)
            assert np.array_equal(g, held)
            assert L.shape == g.shape
            assert np.all(np.triu(L, 1) == 0.0)
            size = np.max(np.abs(g), axis=(-2, -1))[..., None, None]
            assert np.all(np.abs(L @ _t(L) - g) <= 4 * n * eps * size)
            assert np.all(np.abs(L - np.linalg.cholesky(g))
                          <= 4 * n * eps * np.sqrt(size))
            # per-node arithmetic: a node or a strided sub-stack factors
            # to the bits it has in the whole stack
            assert np.array_equal(cholesky(g[2, 1]), L[2, 1])
            assert np.array_equal(cholesky(g[1:4, ::2]), L[1:4, ::2])
            assert np.array_equal(cholesky(_component_major(g, 2)), L)
    if n > 1:
        assert not _agree(cholesky(g), _t(np.linalg.cholesky(g)))


@pytest.mark.parametrize("n", range(1, 9))
def test_cholesky_refuses_a_pivot_that_is_not_positive(n):
    # one bad node fails the whole stack, at the first pivot or the last
    g = np.broadcast_to(np.eye(n), (3, 2, n, n)).copy()
    v = np.arange(1.0, n + 1.0)
    bad = [np.zeros((n, n)), -np.eye(n), np.diag(np.r_[np.ones(n - 1), -1.0]),
           np.diag(np.r_[np.ones(n - 1), np.nan])]
    if n > 1:
        # rank one with integer entries: the second pivot is exactly 0
        bad.append(np.outer(v, v))
        nan_below = np.eye(n)
        nan_below[n - 1, 0] = np.nan
        bad.append(nan_below)
    for node in bad:
        doctored = g.copy()
        doctored[1, 1] = node
        with pytest.raises(ValueError, match="positive definite"):
            cholesky(doctored)
    assert np.array_equal(cholesky(g), g)


def test_a_metric_that_is_not_positive_definite_is_refused(monkeypatch):
    W = make_product("cosh", "flat-torus", 2, 0.0)
    imm = random_immersion(W, seed=4, t_center=0.7, amplitude=0.1, res=12)
    monkeypatch.setattr(W.fiber, "metric",
                        lambda x: -np.broadcast_to(np.eye(2), x.shape + (2,)))
    with pytest.raises(ValueError, match="singular induced metric"):
        evaluate_geometry(imm)


def test_every_tensor_field_is_stored_component_major(geom):
    # each component of a stored tensor field is one contiguous grid, so
    # the whole-grid products read it without a stride; the flat chart's
    # broadcast fiber constants store no grid at all
    grid = geom.u.shape
    checked = []
    for f in dataclasses.fields(geom):
        X = getattr(geom, f.name)
        if not isinstance(X, np.ndarray) or X.shape[:len(grid)] != grid:
            continue
        if 0 in X.strides:
            assert geom.imm.W.fiber.chart == "flat-torus"
            assert f.name in ("ghat", "gammahat")
            continue
        assert components(X, X.ndim - len(grid)).flags.c_contiguous, f.name
        checked.append(f.name)
    assert {"L", "normal", "II", "shape_frame", "H", "newton"} <= set(checked)
    for k in range(1, geom.n):
        assert components(geom.newton_tensor(k), 2).flags.c_contiguous


def test_g_inv_and_a(geom):
    def a(L_inv):
        return np.einsum("...ij,...j->...i", L_inv, geom.du)
    g = geom.L @ _t(geom.L)
    eye = np.broadcast_to(np.eye(geom.n), g.shape)
    assert _agree(inverse_metric(geom.L_inv) @ g, eye)
    assert not _agree(inverse_metric(_t(geom.L_inv)) @ g, eye)
    assert _agree(geom.a, a(geom.L_inv))
    assert not _agree(geom.a, a(_t(geom.L_inv)))


def _roll_diff(f, axis, h, order):
    """The first-derivative stencil on np.roll copies: the reference that
    the views of one padded copy must equal bit for bit."""
    if order == 2:
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)


def _roll_diff2(f, axis, h, order):
    """The second-derivative stencil on np.roll copies."""
    if order == 2:
        return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)
    return (16.0 * (np.roll(f, -1, axis) + np.roll(f, 1, axis))
            - (np.roll(f, -2, axis) + np.roll(f, 2, axis))
            - 30.0 * f) / (12.0 * h * h)


def test_gradients(geom):
    rng = np.random.default_rng(7)
    f = rng.normal(size=geom.u.shape)
    df = np.stack([diff(f, ax, geom.spacing[ax], geom.cfg.order)
                   for ax in range(geom.n)], axis=-1)
    assert np.array_equal(gradient(f, geom.spacing, geom.cfg.order), df)
    # the stencils equal their np.roll forms bit for bit, on contiguous,
    # strided and component-major fields; the mixed second partials
    # difference the first partials
    wide = np.stack([f, rng.normal(size=f.shape)], axis=-1)
    spacing = geom.spacing
    for order in (2, 4):
        for g in (f, wide[..., 1], _component_major(wide, 1)[..., 1]):
            first, hess = hessian(g, spacing, order)
            for i, h in enumerate(spacing):
                assert np.array_equal(diff(g, i, h, order),
                                      _roll_diff(g, i, h, order))
                assert np.array_equal(first[..., i], _roll_diff(g, i, h, order))
                assert np.array_equal(hess[..., i, i],
                                      _roll_diff2(g, i, h, order))
                for j in range(i + 1, geom.n):
                    mixed = _roll_diff(_roll_diff(g, i, h, order), j,
                                       spacing[j], order)
                    assert np.array_equal(hess[..., i, j], mixed)
                    assert np.array_equal(hess[..., j, i], mixed)
    # a view one cell off would not match
    assert not np.array_equal(diff(f, 0, spacing[0]),
                              _roll_diff(np.roll(f, 1, 0), 0, spacing[0], 4))
    M, strided, _, _ = _stacks(geom, 8)
    assert _agree(geom.grad_frame(f),
                  np.einsum("...ij,...j->...i", geom.L_inv, df))
    assert not _agree(geom.grad_frame(f),
                      np.einsum("...ji,...j->...i", geom.L_inv, df))
    # grad_chart raises df through L^-T L^-1; a non-triangular stand-in
    # for L^-1 exposes both of its indices
    def raised(L_inv):
        return np.einsum("...ij,...j->...i", inverse_metric(L_inv), df)
    for L_inv in (geom.L_inv, M, strided):
        site = dataclasses.replace(geom, L_inv=L_inv).grad_chart(f)
        assert _agree(site, raised(L_inv))
    assert not _agree(dataclasses.replace(geom, L_inv=_t(M)).grad_chart(f),
                      raised(M))


def test_hess_covariant(geom):
    rng = np.random.default_rng(9)
    f = rng.normal(size=geom.u.shape)
    df = np.stack([diff(f, ax, geom.spacing[ax], geom.cfg.order)
                   for ax in range(geom.n)], axis=-1)
    _, second = hessian(f, geom.spacing, geom.cfg.order)
    n = geom.n
    wide = rng.normal(size=geom.u.shape + (n, n, n, 2))

    def oracle(G):
        return second - np.einsum("...kij,...k->...ij", G, df)
    # Gamma^k_ij is symmetric in ij; a random stand-in exposes k
    for G in (geom.christoffel, wide[..., 0], _component_major(wide[..., 1], 3)):
        site = dataclasses.replace(geom, christoffel=G).hess_covariant(f)
        assert _agree(site, oracle(G))
    assert not _agree(dataclasses.replace(
        geom, christoffel=np.swapaxes(wide[..., 0], -3, -2)).hess_covariant(f),
        oracle(wide[..., 0]))


def test_frame_vector_to_chart_and_ambient_components(geom):
    _, _, v, _ = _stacks(geom, 10)
    unit = np.broadcast_to(np.eye(geom.n)[-1], v.shape)
    for w in (v, unit, geom.a):
        chart = geom.frame_vector_to_chart(w)
        assert _agree(chart, np.einsum("...ji,...j->...i", geom.L_inv, w))
        amb = geom.ambient_components(chart)
        assert _agree(amb, np.concatenate(
            [np.einsum("...i,...i->...", chart, geom.du)[..., None], chart],
            axis=-1))
    assert not _agree(geom.frame_vector_to_chart(v),
                      np.einsum("...ij,...j->...i", geom.L_inv, v))


def _old_direct_divergence(geom, P_chart, christoffel):
    dP = np.stack([diff(P_chart, ax, geom.spacing[ax], geom.cfg.order)
                   for ax in range(geom.n)], axis=-3)
    return (np.einsum("...mmj->...j", dP)
            + np.einsum("...mmk,...kj->...j", christoffel, P_chart)
            - np.einsum("...kmj,...mk->...j", christoffel, P_chart))


def test_direct_divergence(geom):
    rng = np.random.default_rng(11)
    n = geom.n
    wide = rng.normal(size=geom.u.shape + (2, n, n, n))
    for k in range(1, n):
        P_chart = operators.chart_mixed_newton(geom, k)
        for G in (geom.christoffel, wide[..., 0, :, :, :]):
            site = operators._direct_divergence(
                dataclasses.replace(geom, christoffel=G), k)
            assert _agree(site, _old_direct_divergence(geom, P_chart, G))
        assert not _agree(operators._direct_divergence(geom, k),
                          _old_direct_divergence(geom, _t(P_chart),
                                                 geom.christoffel))


def test_form_to_frame(geom):
    M, strided, _, _ = _stacks(geom, 1)
    for F in (M, strided, geom.II):
        old = np.einsum("...ij,...jk,...lk->...il", geom.L_inv, F, geom.L_inv)
        assert _agree(geom.form_to_frame(F), old)
    assert not _agree(geom.form_to_frame(_t(M)), np.einsum(
        "...ij,...jk,...lk->...il", geom.L_inv, M, geom.L_inv))


def test_shape_frame(geom):
    def oracle(L_inv):
        A = np.einsum("...ij,...jk,...lk->...il", L_inv, geom.II, L_inv)
        return 0.5 * (A + _t(A))
    assert _agree(geom.shape_frame, oracle(geom.L_inv))
    assert not _agree(geom.shape_frame, oracle(_t(geom.L_inv)))


def test_christoffel(geom):
    g = geom.du[..., :, None] * geom.du[..., None, :] \
        + (geom.rho * geom.rho)[..., None, None] * geom.ghat
    dg = np.stack([diff(g, i, geom.spacing[i], geom.cfg.order)
                   for i in range(geom.n)], axis=-3)

    g_inv = inverse_metric(geom.L_inv)

    def oracle(dg):
        return 0.5 * (np.einsum("...kl,...ilj->...kij", g_inv, dg)
                      + np.einsum("...kl,...jil->...kij", g_inv, dg)
                      - np.einsum("...kl,...lij->...kij", g_inv, dg))
    assert _agree(geom.christoffel, oracle(dg))
    assert not _agree(geom.christoffel, oracle(np.swapaxes(dg, -3, -2)))
    # the stacked form: every (l, i, j) of the first kind differenced and
    # combined, then raised by one matmul; differencing and raising only
    # i <= j must reproduce it bit for bit
    first = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    stacked = matmul(g_inv, first.reshape(geom.u.shape + (geom.n, -1)))
    assert np.array_equal(geom.christoffel, stacked.reshape(first.shape))


def test_chart_mixed_newton(geom):
    for k in range(geom.n):
        old = np.einsum("...ji,...jk,...lk->...il",
                        geom.L_inv, geom.newton_tensor(k), geom.L)
        assert _agree(operators.chart_mixed_newton(geom, k), old)
    flipped = dataclasses.replace(geom, L=_t(geom.L))
    assert not _agree(operators.chart_mixed_newton(flipped, 1), np.einsum(
        "...ji,...jk,...lk->...il", geom.L_inv, geom.newton_tensor(1),
        geom.L))


def test_frame_quadratic(geom):
    M, strided, v, w = _stacks(geom, 2)
    unit = np.broadcast_to(np.eye(geom.n)[0], v.shape)
    for P in (M, strided, geom.newton_tensor(geom.n - 1)):
        for x, y in ((v, w), (geom.a, unit), (unit, geom.a)):
            old = np.einsum("...i,...ij,...j->...", x, P, y)
            assert _agree(operators._frame_quadratic(P, x, y), old)
    assert not _agree(operators._frame_quadratic(_t(M), v, w),
                      np.einsum("...i,...ij,...j->...", v, M, w))


def test_ambient_inner(geom):
    M, _, _, _ = _stacks(geom, 3)
    rng = np.random.default_rng(3)
    U, V = rng.normal(size=(2,) + geom.u.shape + (geom.n + 1,))

    def oracle(gfib):
        fib = np.einsum("...i,...ij,...j->...", U[..., 1:], gfib, V[..., 1:])
        return U[..., 0] * V[..., 0] + geom.rho ** 2 * fib
    for gfib in (geom.ghat, M):
        site = operators._ambient_inner(dataclasses.replace(geom, ghat=gfib),
                                        U, V)
        assert _agree(site, oracle(gfib))
    assert not _agree(operators._ambient_inner(
        dataclasses.replace(geom, ghat=_t(M)), U, V), oracle(M))


def _old_curvature_tensor(kappa, rho, hcal, dhcal, gfib, U, V, Wv):
    rho2 = rho * rho
    uT, vT, wT = U[..., 0], V[..., 0], Wv[..., 0]
    fib_vw = np.einsum("...i,...ij,...j->...", V[..., 1:], gfib, Wv[..., 1:])
    fib_uw = np.einsum("...i,...ij,...j->...", U[..., 1:], gfib, Wv[..., 1:])
    vw = vT * wT + rho2 * fib_vw
    uw = uT * wT + rho2 * fib_uw
    out = np.zeros(np.broadcast(U, V, Wv).shape)
    out[..., 1:] += kappa * (fib_vw[..., None] * U[..., 1:]
                             - fib_uw[..., None] * V[..., 1:])
    out -= (hcal ** 2)[..., None] * (vw[..., None] * U - uw[..., None] * V)
    out += (dhcal * wT)[..., None] * (uT[..., None] * V - vT[..., None] * U)
    out[..., 0] -= dhcal * (vw * uT - uw * vT)
    return out


def test_curvature_tensor_components(geom):
    M, _, _, _ = _stacks(geom, 4)
    rng = np.random.default_rng(4)
    U, V, Wv = rng.normal(size=(3,) + geom.u.shape + (geom.n + 1,))
    args = (0.5, geom.rho, geom.hcal, geom.dhcal)
    for gfib in (geom.ghat, M):
        assert _agree(curvature_tensor_components(*args, gfib, U, V, Wv),
                      _old_curvature_tensor(*args, gfib, U, V, Wv))
    assert not _agree(curvature_tensor_components(*args, _t(M), U, V, Wv),
                      _old_curvature_tensor(*args, M, U, V, Wv))


@pytest.mark.parametrize("chart,kappa", [("flat-torus", 0.0),
                                         ("space-form", 1.0),
                                         ("space-form", -1.0)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_component_major_kernel_is_bit_identical_on_fiber_metrics(chart,
                                                                  kappa, n):
    # the fiber metrics the charts store are diagonal, so every fiber
    # product sums (X_i g_ii) W_i in the oracle's order: the component-major
    # kernel must then reproduce the single-einsum oracle bit for bit, on
    # random vectors and on the frame and normal that route (c) hands it;
    # so must the ambient inner product that route (c) pairs it with
    W = make_product("cosh", chart, n, kappa)
    geom = evaluate_geometry(random_immersion(
        W, seed=n, t_center=0.7, amplitude=0.1, res=8))
    rng = np.random.default_rng(n)
    U, V = rng.normal(size=(2,) + geom.u.shape + (n + 1,))
    frame = geom.ambient_components(geom.L_inv[..., 0, :])
    args = (kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat)
    for vecs in ((U, V, frame), (frame, U, geom.normal),
                 (U, frame, geom.normal)):
        assert np.array_equal(curvature_tensor_components(*args, *vecs),
                              _old_curvature_tensor(*args, *vecs))
    fib = np.einsum("...i,...ij,...j->...", U[..., 1:], geom.ghat, V[..., 1:])
    assert np.array_equal(operators._ambient_inner(geom, U, V),
                          U[..., 0] * V[..., 0] + geom.rho ** 2 * fib)


@pytest.mark.parametrize("chart,kappa", [("flat-torus", 0.0),
                                         ("space-form", 1.0),
                                         ("space-form", -1.0)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_and_christoffel_symmetries_hold_bit_for_bit(chart, kappa, n):
    # route (c) evaluates the kernel for frame pairs i < a only and
    # subtracts its pairing for the pair (a, i), and the Christoffel
    # symbols are formed for i <= j only: both rest on these symmetries
    # holding exactly
    W = make_product("cosh", chart, n, kappa)
    geom = evaluate_geometry(random_immersion(
        W, seed=n, t_center=0.7, amplitude=0.1, res=8))
    U, V = np.random.default_rng(n).normal(size=(2,) + geom.u.shape + (n + 1,))
    frame = [geom.ambient_components(geom.L_inv[..., i, :]) for i in range(2)]
    args = (kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat)
    for X, Y, Z in ((U, V, geom.normal), (*frame, geom.normal), (U, V, U)):
        R = curvature_tensor_components(*args, X, Y, Z)
        assert np.array_equal(curvature_tensor_components(*args, Y, X, Z), -R)
        assert not np.any(curvature_tensor_components(*args, X, X, Z))
        assert np.array_equal(operators._ambient_inner(geom, -R, V),
                              -operators._ambient_inner(geom, R, V))
    assert np.array_equal(geom.christoffel, _t(geom.christoffel))


@pytest.mark.parametrize("chart,kappa", [("flat-torus", 0.0),
                                         ("space-form", -1.0)])
@pytest.mark.parametrize("n", [1, 3])
def test_point_curvature_is_the_one_node_grid_kernel(chart, kappa, n):
    # the point-form tests hand the kernel 1-D vectors and 0-d profile
    # values; they must get a (n+1,) tensor, equal bit for bit to the same
    # node evaluated as a grid of one, and the oracle's tensor to rounding
    W = make_product("cosh", chart, n, kappa)
    rng = np.random.default_rng(60 + n)
    eye = np.eye(n)
    for t in rng.uniform(-2.5, 2.5, size=20):
        u, v, w = rng.normal(size=(3, n + 1))
        got = point_curvature(W, t, u, v, w)
        d = warping_eval(W, t)
        one = curvature_tensor_components(
            kappa, d.rho[None], d.hcal[None], d.dhcal[None], eye[None],
            u[None], v[None], w[None])
        assert got.shape == (n + 1,)
        assert np.array_equal(got, one[0])
        assert _agree(got, _old_curvature_tensor(kappa, d.rho, d.hcal,
                                                 d.dhcal, eye, u, v, w))


def test_theta_from_du_hat_sq(geom):
    # theta = -1/W with W^2 = 1 + |du|^2_ghat / rho^2 (orientation +1)
    ghat_inv = geom.imm.W.fiber.inverse_metric(geom.imm.mesh())
    du_hat_sq = np.einsum("...ij,...i,...j->...", ghat_inv, geom.du, geom.du)
    # every operand here is symmetric or a vector: no transposed variant
    assert _agree(geom.theta, -1.0 / np.sqrt(1.0 + du_hat_sq / geom.rho ** 2))


def test_eigen_frame_diagonal(geom):
    # beta_k and its algebraic route are both linear in kappa and agree for
    # any kappa, so a kappa set on the fiber after evaluation exposes the
    # eigen-frame site on the flat 3-torus too
    fiber = geom.imm.W.fiber
    kappa, fiber.kappa = fiber.kappa, 0.5
    try:
        k = 1
        P = geom.newton_tensor(k)
        evecs = np.linalg.eigh(geom.shape_frame)[1]
        norm_grad_sq = 1.0 - geom.theta ** 2

        def oracle(Q):
            mu = np.einsum("...ji,...jl,...li->...i", Q, P, Q)
            e = np.einsum("...ji,...j->...i", evecs, geom.a)
            beta = 0.5 * np.einsum("...i,...i->...", mu,
                                   norm_grad_sq[..., None] - e ** 2)
            quad = np.einsum("...i,...ij,...j->...", geom.a, P, geom.a)
            return beta - 0.5 * (norm_grad_sq * geom.c[k] * geom.H[..., k]
                                 - quad), beta
        old, beta = oracle(evecs)
        site = operators.theta_hat_identity(None, k, geom=geom)
        # the routes cancel to rounding, so scale by the field they share
        scale = float(np.max(np.abs(beta)))
        assert float(np.max(np.abs(site["beta_routes"].grid - old))) \
            <= REL * scale
        if geom.n == 3:   # eigh's 2x2 frames can be symmetric reflections
            assert float(np.max(np.abs(site["beta_routes"].grid
                                       - oracle(_t(evecs))[0]))) > REL * scale
    finally:
        fiber.kappa = kappa


def _wide_einsums(source):
    """Lines of ``np.einsum`` calls given more than two array operands."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            operands = node.args[1:]
            if len(operands) > 2 or any(isinstance(a, ast.Starred)
                                        for a in operands):
                lines.append(node.lineno)
    return lines


def test_no_einsum_takes_more_than_two_operands():
    assert _wide_einsums("np.einsum('i,ij,j->', v, P, w)") == [1]
    assert _wide_einsums("np.einsum('ij,j->i', *ops)") == [1]
    assert _wide_einsums("np.einsum('ij,j->i', P, w)") == []
    package = Path(warpcurv.__file__).parent
    found = {path.name: _wide_einsums(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(found) >= 9
    assert {name: lines for name, lines in found.items() if lines} == {}


def _attribute_calls(source, owner):
    """(enclosing function, routine, arguments) of every call spelled
    ``owner.routine(...)``, in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and ast.unparse(child.func.value) == owner):
                args = ", ".join(ast.unparse(arg) for arg in
                                 child.args + child.keywords)
                found.append((where, child.func.attr, args))
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_no_stored_spectrum_is_solved_again():
    # every eigen-solve and every np.linalg call in the package is listed
    # here.  The principal curvatures are solved once, in the geometry body
    # that evaluate_geometry memoizes; the Newton spectra follow from them
    # in closed form.  Two more solves of symfun's batched Jacobi solver
    # remain by design: the eigen frame of one beta_k route, and the
    # spectrum of the calligraphic combination that semidefiniteness is
    # measured on, over the audited nodes only.  No np.linalg eigen-call
    # is left.  The metric is factored once, by _grid.cholesky in the
    # geometry body, and the factor is inverted by forward substitution,
    # so a cholesky, solve or inv that comes back fails here; the norm only
    # bounds a box corner
    assert _attribute_calls("def f(A):\n    return np.linalg.eigvalsh(A @ A)",
                            "np.linalg") == [("f", "eigvalsh", "A @ A")]
    assert _attribute_calls("w, v = np.linalg.eigh(M, UPLO='U')",
                            "np.linalg") == [(None, "eigh", "M, UPLO='U'")]
    assert _attribute_calls("try:\n    X = np.linalg.solve(L, I)\n"
                            "except np.linalg.LinAlgError:\n    pass",
                            "np.linalg") == [(None, "solve", "L, I")]
    package = Path(warpcurv.__file__).parent
    sources = {path.name: path.read_text()
               for path in sorted(package.glob("*.py"))}
    found = [(name,) + site for name, source in sources.items()
             for site in _attribute_calls(source, "np.linalg")]
    assert found == [
        ("ambient.py", "check_points", "norm",
         "np.asarray(x, dtype=float), axis=-1"),
    ]
    assert _package_callers("cholesky") == {
        "hypersurface.py": ["_geometry_fields"]}
    assert {name: source.count("cholesky(")
            for name, source in sources.items()
            if name != "_grid.py" and "cholesky(" in source} \
        == {"hypersurface.py": 1}
    assert "L = cholesky(g)\n" in sources["hypersurface.py"]
    solves = [(name,) + site for name, source in sources.items()
              for site in _attribute_calls(source, "symfun")
              if site[1] == "jacobi_eigh_batch"]
    assert solves == [
        ("hypersurface.py", "_geometry_fields", "jacobi_eigh_batch",
         "shape_frame, False"),
        ("operators.py", "calligraphic_ops", "jacobi_eigh_batch",
         "Pcal[mask], False"),
        ("operators.py", "theta_hat_identity", "jacobi_eigh_batch",
         "geom.shape_frame, True"),
    ]
    # and neither the solver nor a linear-algebra package is reached under
    # another spelling
    assert {name: source.count("jacobi_eigh_batch")
            for name, source in sources.items()
            if name != "symfun.py" and "jacobi_eigh_batch" in source} \
        == {"hypersurface.py": 1, "operators.py": 2}
    assert [name for name, source in sources.items()
            if "linalg import" in source or "import numpy.linalg" in source
            or "scipy.linalg" in source or "linalg as" in source] == []


def _callers(source, name):
    """Enclosing function of every call of ``name`` (bare or as an
    attribute), in source order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_only_the_memo_evaluates_a_geometry():
    # a caller of the uncached body would bypass the per-config memo and
    # evaluate the same geometry again
    assert _callers("def f(m):\n    return m._g(1) + _g(2)\n_g(3)", "_g") \
        == ["f", "f", None]
    assert _package_callers("_geometry_fields") == {
        "hypersurface.py": ["evaluate_geometry"]}


def test_only_the_memo_builds_a_newton_family():
    # a caller of the uncached body would solve the matrix again
    assert _package_callers("_newton_arrays") == {
        "symfun.py": ["newton_family"]}


def _package_callers(name):
    """``_callers`` of ``name`` in each package module that calls it."""
    package = Path(warpcurv.__file__).parent
    found = {path.name: _callers(path.read_text(), name)
             for path in sorted(package.glob("*.py"))}
    return {module: sites for module, sites in found.items() if sites}


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(tree):
    """Names a module imports and never reads (``__future__`` aside)."""
    loaded = _loaded_names(tree)
    return [name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in ((a.asname or a.name).split(".")[0]
                         for a in node.names)
            if name not in loaded]


def _definitions(tree):
    """Module-level names a module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return names


def _private_definitions(tree):
    """Module-level names with one leading underscore."""
    return [n for n in _definitions(tree)
            if n.startswith("_") and not n.startswith("__")]


def _public_definitions(tree):
    """Module-level names with no leading underscore."""
    return [n for n in _definitions(tree) if not n.startswith("_")]


def _references(tree):
    """Every name a module reads, reads as an attribute, or imports."""
    return (_loaded_names(tree)
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
            | {a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names})


def _reached(trees, roots):
    """The names read from ``roots`` or, transitively, from the body of a
    module-level definition in ``trees`` whose name is reached.

    Every module-level statement that is not a function or class runs on
    import, so what it reads is reached too.
    """
    bodies = {}
    reached = set(roots)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_references(node))
            else:
                reached |= _references(node)
    todo = set(reached)
    while todo:
        new = bodies.get(todo.pop(), set()) - reached
        reached |= new
        todo |= new
    return reached


def test_package_has_no_unused_import_or_orphaned_private_name():
    # a deletion that leaves its helper or import behind shows up here
    tree = ast.parse("import os\nimport logging\nfrom m import a, b as c\n"
                     "_X = 1\n_Y = 2\ndef _f():\n    return os.sep, a, _X\n"
                     "class Z:\n    pass\n")
    assert _unused_imports(tree) == ["logging", "c"]
    assert _private_definitions(tree) == ["_X", "_Y", "_f"]
    assert _public_definitions(tree) == ["Z"]
    assert [n for n in _private_definitions(tree)
            if n not in _references(tree)] == ["_Y", "_f"]
    package = Path(warpcurv.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert len(trees) >= 9
    referenced = set().union(*map(_references, trees.values()))
    found = {name: (_unused_imports(tree),
                    [n for n in _private_definitions(tree)
                     if n not in referenced])
             for name, tree in trees.items() if name != "__init__.py"}
    assert {name: f for name, f in found.items() if any(f)} == {}
    # a public name that nothing reached from the benchmark files, the
    # module-level code or the CLI entry point reads is reached only from
    # its own tests; __init__ only re-exports, so it reaches nothing
    tree = ast.parse("def a():\n    return b\ndef b():\n    return 1\n"
                     "def c():\n    return d\ndef d():\n    return 2\n"
                     "def f():\n    return c\nX = c\n")
    assert _reached([tree], {"a"}) == {"a", "b", "c", "d"}
    bench = Path(__file__).resolve().parent.parent / "bench"
    src = [tree for name, tree in trees.items() if name != "__init__.py"]
    reached = _reached(src, {"main"}.union(
        *(_references(ast.parse(path.read_text()))
          for path in sorted(bench.glob("*.py")))))
    assert {n for tree in src for n in _public_definitions(tree)
            if n not in reached} == set()


def _optional_parameters(tree):
    """(call names, positional parameters, defaulted parameters) of every
    ``def`` with a default, nested ones included.  A method drops its
    first parameter, and a class call reaches its ``__init__``."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = [a.arg for a in args.posonlyargs + args.args]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    pos = pos[1:]
                opt = pos[len(pos) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                names = {child.name}
                if child.name == "__init__" and cls is not None:
                    names.add(cls)
                if opt:
                    found.append((names, pos, opt))
                visit(child, None)
                continue
            visit(child, cls)

    visit(tree, None)
    return found


def _passed_parameters(trees, names, pos):
    """The parameters some call of ``names`` passes by keyword or position;
    None when a call passes a ``*`` or ``**`` splat, which may pass any."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and names & {
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)}):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                return None
            passed |= set(pos[:len(node.args)])
            passed |= {k.arg for k in node.keywords}
    return passed


def _unset_parameters(defs, calls):
    found = []
    for tree in defs:
        for names, pos, opt in _optional_parameters(tree):
            passed = _passed_parameters(calls, names, pos)
            if passed is not None:
                found += [(min(names), p) for p in opt if p not in passed]
    return found


def test_every_optional_parameter_is_set_by_some_call():
    # a default that no call overrides is a knob nothing turns: fold it
    # into the body.  Calls in src, tests and bench count
    defs = ast.parse("def f(a, b=1, *, c=2):\n    pass\n"
                     "def g(x=0):\n    pass\n"
                     "class E:\n    def __init__(self, m, where=None):\n"
                     "        pass\n"
                     "    def h(self, y=1):\n        pass\n")
    calls = [ast.parse("f(0, 5)\ng(**kw)\nE('m')\ne.h(2)\n")]
    assert _unset_parameters([defs], calls) == [("f", "c"), ("E", "where")]
    calls.append(ast.parse("f(0, c=3)\nE('m', 'here')\n"))
    assert _unset_parameters([defs], calls) == []
    root = Path(__file__).resolve().parent.parent
    package = Path(warpcurv.__file__).parent
    defs = [ast.parse(path.read_text())
            for path in sorted(package.glob("*.py"))]
    calls = [ast.parse(path.read_text())
             for folder in ("src", "tests", "bench")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(defs) >= 9 and len(calls) > len(defs)
    assert _unset_parameters(defs, calls) == []


def test_every_export_resolves_and_init_imports_only_exports():
    # an export left behind by a removal, or an import __init__ does not
    # export, fails here
    names = warpcurv.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(warpcurv, name) for name in names)
    star = {}
    exec("from warpcurv import *", star)
    assert set(names) <= set(star)
    init = ast.parse(Path(warpcurv.__file__).read_text())
    assert {a.asname or a.name for node in init.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names} <= set(names)
