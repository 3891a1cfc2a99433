"""Finite-difference stencils and refinement utilities on uniform grids.

All stencils are central differences that wrap periodically via
``numpy.roll``.  On non-periodic axes the wrapped values are garbage; the
geometry modules exclude a margin of cells from every audit (see
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


def diff(f: np.ndarray, axis: int, h: float, order: int = 4) -> np.ndarray:
    """First derivative of ``f`` along a grid axis (periodic wrap)."""
    if order == 2:
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    if order == 4:
        # paired differences first, so a constant field differences to 0
        return (8.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
                - (np.roll(f, -2, axis) - np.roll(f, 2, axis))) / (12.0 * h)
    raise ValueError(f"unsupported stencil order {order!r}; use 2 or 4")


def diff2(f: np.ndarray, axis: int, h: float, order: int = 4) -> np.ndarray:
    """Second derivative of ``f`` along a grid axis (periodic wrap)."""
    if order == 2:
        return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)
    if order == 4:
        return (16.0 * (np.roll(f, -1, axis) + np.roll(f, 1, axis))
                - (np.roll(f, -2, axis) + np.roll(f, 2, axis))
                - 30.0 * f) / (12.0 * h * h)
    raise ValueError(f"unsupported stencil order {order!r}; use 2 or 4")


def gradient(f: np.ndarray, spacing, order: int = 4) -> np.ndarray:
    """Stack of first partials along the grid axes, one per spacing.

    Returns an array of shape ``f.shape + (len(spacing),)``.
    """
    parts = [diff(f, axis, h, order) for axis, h in enumerate(spacing)]
    return np.stack(parts, axis=-1)


def hessian(f: np.ndarray, spacing, order: int = 4) -> np.ndarray:
    """Matrix of second partials; shape ``f.shape + (n, n)``.

    Diagonal entries use the direct second-derivative stencil; mixed
    entries apply the first-derivative stencil twice.
    """
    n = len(spacing)
    out = np.empty(f.shape + (n, n))
    firsts = [diff(f, a, spacing[a], order) for a in range(n)]
    for i in range(n):
        out[..., i, i] = diff2(f, i, spacing[i], order)
        for j in range(i + 1, n):
            mixed = diff(firsts[i], j, spacing[j], order)
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out


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
    """Largest absolute residual over the masked nodes.

    NaN when the mask is empty: a residual audited nowhere must fail every
    gate, not pass as zero.
    """
    return float(np.max(np.abs(resid[mask]))) if np.any(mask) else math.nan


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
    """Deterministic golden-section maximization of ``fn`` on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(80):      # shrinks [a, b] by invphi**80, about 2e-17
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
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
