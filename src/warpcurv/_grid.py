"""Finite-difference stencils and refinement utilities on uniform grids.

All stencils are central differences that wrap periodically: each shift
is a view of one wrap-padded copy of the field, holding what ``numpy.roll``
would.  On non-periodic axes the wrapped values are garbage; the geometry
modules exclude a margin of cells from every audit (see
``interior_mask``), sized so that nested differencing never contaminates
the audited region.
"""

from __future__ import annotations

import math

import numpy as np

_RADIUS = {2: 1, 4: 2}


def stencil_radius(order: int) -> int:
    """Half-width of the central stencil of the given order."""
    try:
        return _RADIUS[order]
    except KeyError:
        raise ValueError(f"unsupported stencil order {order!r}; use 2 or 4")


def _shifts(f: np.ndarray, axis: int, order: int):
    """``s -> np.roll(f, -s, axis)`` for |s| up to the stencil radius, as
    views of one copy of ``f`` wrap-padded along ``axis``."""
    r = stencil_radius(order)
    size = f.shape[axis]

    def along(lo, hi):
        index = [slice(None)] * f.ndim
        index[axis] = slice(lo, hi)
        return tuple(index)

    padded = np.concatenate((f[along(size - r, size)], f, f[along(0, r)]),
                            axis=axis)
    return lambda s: padded[along(r + s, r + s + size)]


def _first(at, h: float, order: int) -> np.ndarray:
    if order == 2:
        return (at(1) - at(-1)) / (2.0 * h)
    # paired differences first, so a constant field differences to 0
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def diff(f: np.ndarray, axis: int, h: float, order: int = 4) -> np.ndarray:
    """First derivative of ``f`` along a grid axis (periodic wrap)."""
    return _first(_shifts(f, axis, order), h, order)


def gradient(f: np.ndarray, spacing, order: int = 4) -> np.ndarray:
    """First partials along the grid axes, one per spacing.

    Returns an array of shape ``f.shape + (len(spacing),)``, stored
    component-major (see ``components``).
    """
    out = np.empty((len(spacing),) + f.shape)
    for axis, h in enumerate(spacing):
        out[axis] = diff(f, axis, h, order)
    return node_major(out, 1)


def hessian(f: np.ndarray, spacing, order: int = 4) -> tuple:
    """First partials and the matrix of second partials, of shapes
    ``f.shape + (n,)`` (equal to ``gradient``'s) and ``f.shape + (n, n)``,
    both stored component-major.

    Diagonal entries use the direct second-derivative stencil, read from
    the padded copy the first partial of that axis reads; mixed entries
    apply the first-derivative stencil to the first partials.
    """
    n = len(spacing)
    firsts = np.empty((n,) + f.shape)
    out = np.empty((n, n) + f.shape)
    for i, h in enumerate(spacing):
        at = _shifts(f, i, order)
        firsts[i] = _first(at, h, order)
        if order == 2:
            out[i, i] = (at(1) - 2.0 * f + at(-1)) / (h * h)
        else:
            out[i, i] = (16.0 * (at(1) + at(-1)) - (at(2) + at(-2))
                         - 30.0 * f) / (12.0 * h * h)
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = diff(firsts[i], j, spacing[j], order)
    return node_major(firsts, 1), node_major(out, 2)


# ---------------------------------------------------------------------------
# per-node linear algebra, component-major
# ---------------------------------------------------------------------------
#
# Fields keep node-major shapes: grid axes first, then component axes of
# length n <= 8.  A contraction over those short axes, written as an
# einsum or a stacked matrix product, runs an inner loop of length n at
# every node.  These move the component axes first, as views, and form
# each output component as a sum of whole-grid products.  Each output is
# written into a component-major buffer and returned as its node-major
# view, so a chain of them reads whole contiguous grids.  Every tensor
# field of a ``GeometryGrid`` is stored that way, so each component the
# primitives read is one contiguous grid.

def components(X: np.ndarray, k: int = 1) -> np.ndarray:
    """View of ``X`` with its last ``k`` (component) axes moved first."""
    grid = X.ndim - k
    return X.transpose(tuple(range(grid, X.ndim)) + tuple(range(grid)))


def node_major(buf: np.ndarray, k: int) -> np.ndarray:
    """Node-major view of a buffer whose first ``k`` axes are components."""
    return buf.transpose(tuple(range(k, buf.ndim)) + tuple(range(k)))


def _sum_of_products(out: np.ndarray, pairs) -> np.ndarray:
    """``out`` = sum of x * y over ``pairs``, left to right, in place."""
    (x, y), *rest = pairs
    np.multiply(x, y, out=out)
    for x, y in rest:
        out += x * y
    return out


def dot(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i v_i w_i at every node."""
    vc, wc = components(v), components(w)
    out = np.empty(np.broadcast_shapes(vc.shape[1:], wc.shape[1:]))
    return _sum_of_products(out, zip(vc, wc))


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(M v)_i = sum_j M_ij v_j at every node.  Pass
    ``np.swapaxes(M, -1, -2)`` for M^T v; the transpose is a view."""
    Mc, vc = components(M, 2), components(v)
    out = np.empty(Mc.shape[:1]
                   + np.broadcast_shapes(Mc.shape[2:], vc.shape[1:]))
    for i, row in enumerate(Mc):
        _sum_of_products(out[i, ...], zip(row, vc))
    return node_major(out, 1)


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(A B)_ik = sum_j A_ij B_jk at every node.  Transposes are views:
    pass ``np.swapaxes(X, -1, -2)``."""
    Ac, Bc = components(A, 2), components(B, 2)
    out = np.empty(Ac.shape[:1] + Bc.shape[1:2]
                   + np.broadcast_shapes(Ac.shape[2:], Bc.shape[2:]))
    for i, row in enumerate(Ac):
        for k in range(Bc.shape[1]):
            _sum_of_products(out[i, k, ...], zip(row, Bc[:, k]))
    return node_major(out, 2)


def contract_first(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k T_kij v_k at every node, for T with three component axes
    (such as Gamma^k_ij d_k f)."""
    Tc, vc = components(T, 3), components(v)
    out = np.empty(Tc.shape[1:3]
                   + np.broadcast_shapes(Tc.shape[3:], vc.shape[1:]))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            _sum_of_products(out[i, j, ...], zip(Tc[:, i, j], vc))
    return node_major(out, 2)


def trace_product(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Tr(P F) = sum_ij P_ij F_ji at every node."""
    Pc, Fc = components(P, 2), components(F, 2)
    out = np.empty(np.broadcast_shapes(Pc.shape[2:], Fc.shape[2:]))
    n = Pc.shape[0]
    return _sum_of_products(out, ((Pc[i, j], Fc[j, i])
                                  for i in range(n) for j in range(n)))


def lower_triangular_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular L at every node, by forward
    substitution; its strictly upper entries are exactly 0.

    Column j solves L x = e_j from the diagonal down:
    x_j = 1/L_jj and x_i = -(sum_{j<=m<i} L_im x_m) / L_ii.
    """
    Lc = components(L, 2)
    n = Lc.shape[0]
    out = np.zeros(Lc.shape)
    for j in range(n):
        out[j, j] = 1.0 / Lc[j, j]
        for i in range(j + 1, n):
            x = _sum_of_products(out[i, j, ...], ((Lc[i, m], out[m, j])
                                            for m in range(j, i)))
            x /= Lc[i, i]
            np.negative(x, out=x)
    return node_major(out, 2)


def cholesky(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with g = L L^T at every node, column by column;
    its strictly upper entries are exactly 0.  Only the lower triangle of
    g is read.

    Column j takes the pivot d = g_jj - sum_{m<j} L_jm^2, then
    L_jj = sqrt(d) and L_ij = (g_ij - sum_{m<j} L_im L_jm) / L_jj below
    it.  Raises ValueError unless every pivot of every node is > 0, so a
    NaN pivot fails too.
    """
    gc = components(g, 2)
    n = gc.shape[0]
    out = np.zeros(gc.shape)
    for j in range(n):
        for i in range(j, n):
            # an Ellipsis keeps a one-node entry a writable 0-d view
            x = out[i, j, ...]
            if j:
                _sum_of_products(x, ((out[i, m], out[j, m])
                                     for m in range(j)))
            np.subtract(gc[i, j], x, out=x)
            if i == j:
                if not (x > 0.0).all():
                    raise ValueError("matrix is not positive definite at "
                                     "every node")
                np.sqrt(x, out=x)
            else:
                x /= out[j, j]
    return node_major(out, 2)


def interior_mask(shape, periodic, cells: int) -> np.ndarray:
    """Boolean grid mask excluding ``cells`` cells at each non-periodic edge."""
    mask = np.ones(shape, dtype=bool)
    for axis, per in enumerate(periodic):
        if per or cells <= 0:
            continue
        sl = [slice(None)] * len(shape)
        sl[axis] = slice(0, cells)
        mask[tuple(sl)] = False
        sl[axis] = slice(shape[axis] - cells, shape[axis])
        mask[tuple(sl)] = False
    return mask


def masked_max(resid: np.ndarray, mask: np.ndarray) -> float:
    """Largest absolute residual over the masked nodes, every component of
    a vector- or matrix-valued residual included.

    The grid mask is broadcast over the component axes and read as the
    reduction's ``where``, so no masked copy is made.  A NaN at a masked
    node is returned as NaN.  NaN when the mask is empty: a residual
    audited nowhere must fail every gate, not pass as zero.
    """
    if not mask.any():
        return math.nan
    where = mask.reshape(mask.shape + (1,) * (resid.ndim - mask.ndim))
    return float(np.max(np.abs(resid), where=where, initial=0.0))


def min_or_nan(values) -> float:
    """Smallest of ``values`` (inf for none), NaN when one is NaN.

    Python's ``min`` drops a NaN that is not first.  ``np.min`` would keep
    it, but breaks a tie of -0.0 and 0.0 the other way; this keeps
    ``min``'s first-wins order, so a margin keeps its signed zero.
    """
    values = [float(v) for v in values]
    if any(map(math.isnan, values)):
        return math.nan
    return min(values, default=math.inf)


def golden_max(fn, a: float, b: float) -> float:
    """Deterministic golden-section maximization of ``fn`` on [a, b].

    Once the bracket is a few ulps wide, new points repeat earlier ones;
    ``fn`` runs once per distinct point and a repeat reads its value back.
    """
    values = {}

    def value(t):
        if t not in values:
            values[t] = fn(t)
        return values[t]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(80):      # shrinks [a, b] by invphi**80, about 2e-17
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
    return 0.5 * (a + b)


def fit_order(hs, residuals):
    """Least-squares slope of log(residual) against log(h).

    Returns ``None`` when every residual sits at or below the rounding
    floor 1e-13 (exactness case: the slope of rounding noise carries no
    information).
    """
    floor = 1e-13
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if np.all(rs <= floor):
        return None
    rs = np.maximum(rs, floor)
    slope, _ = np.polyfit(np.log(hs), np.log(rs), 1)
    return float(slope)
