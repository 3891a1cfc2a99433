"""Discretized graph hypersurfaces t = u(x) inside a warped product.

A graph over a fiber chart carries the induced metric

    g_ij = u_i u_j + rho(u)^2 ghat_ij,

normal chosen so that a constant graph has N = -d/dt and Theta = -1.
Everything downstream (shape operator, principal curvatures, Newton
tensors, operator identities) is evaluated on the whole grid at once.

Frames.  Most curvature algebra happens in an orthonormal tangent frame
obtained from the Cholesky factor L of g (g = L L^T):

* frame components of grad f are ``L^{-1} @ (chart partials of f)``;
* a bilinear form F becomes ``L^{-1} F L^{-T}``;
* the shape operator in the frame is ``A~ = L^{-1} II L^{-T}``, which is
  symmetric and has the principal curvatures as eigenvalues.

The seeded random graph family (``random_height_function``) lives here
too, so library code and tests build the same graphs the CLI does.

Finite differencing wraps periodically; on non-periodic axes a margin of
cells is excluded from every audit.  The margin is sized for the deepest
differencing chain in the package (a divergence of a flux whose
potential already contains second derivatives: four nested stencils).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import symfun
from ._grid import (cholesky, components, contract_first, diff, dot,
                    gradient, hessian, interior_mask, lower_triangular_inverse,
                    masked_max, matmul, matvec, min_or_nan, node_major,
                    stencil_radius)
from .ambient import WarpedProduct, warping_eval


# deepest stencil nesting is 4 (divergence-of-flux identities), so audits
# stay this many stencil radii away from non-periodic edges
MARGIN_FACTOR = 4


@dataclass(frozen=True)
class DiscretizationConfig:
    """Stencil order and refinement depth for grid audits."""

    order: int = 4
    refine_levels: int = 3

    def __post_init__(self):
        stencil_radius(self.order)   # refuses an order with no stencil
        if self.refine_levels < 2:
            raise ValueError("a convergence slope needs at least two "
                             "refinement levels")

    @property
    def margin_cells(self) -> int:
        return MARGIN_FACTOR * stencil_radius(self.order)


def _check_box(box):
    if not all(lo < hi for lo, hi in box):
        raise ValueError("every box axis needs lo < hi")


def _axes_from_box(box, shape, periodic):
    """Per-axis coordinates and spacing: periodic axes drop the endpoint.

    A spacing whose square is below the smallest normal float is refused:
    the second-difference stencils divide by that square, so they would
    overflow.
    """
    _check_box(box)
    axes, spacing = [], []
    for (lo, hi), n_pts, per in zip(box, shape, periodic):
        if per:
            h = (hi - lo) / n_pts
            axes.append(lo + h * np.arange(n_pts))
        else:
            h = (hi - lo) / (n_pts - 1)
            axes.append(lo + h * np.arange(n_pts))
        if h * h < np.finfo(float).tiny:
            raise ValueError(f"grid spacing {h:.3g} is too fine: its square "
                             "underflows, so the stencils overflow")
        spacing.append(h)
    return axes, tuple(spacing)


@dataclass(frozen=True)
class GraphImmersion:
    """A height field over a fiber chart, with grid metadata.

    ``orientation`` flips the unit normal: +1 gives Theta = -1/W < 0
    (the slice convention), -1 the opposite normal.  ``periodic`` may
    override the chart default per axis, e.g. to treat a non-periodic
    height patch on a torus chart.

    Immutable, with ``u`` a read-only copy of the given heights, so the
    geometry ``evaluate_geometry`` memoizes per config stays valid; a
    changed immersion (``dataclasses.replace``) starts an empty memo.
    """

    W: WarpedProduct
    u: np.ndarray
    box: tuple
    periodic: tuple
    orientation: int = 1
    fn: callable = field(default=None, repr=False)
    # DiscretizationConfig -> the read-only fields of its GeometryGrid.
    # The fields, not the grid: the grid points back at the immersion,
    # and that cycle would keep each geometry alive until the cyclic GC
    _geometry: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _flipped: "GraphImmersion" = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        n = self.W.fiber.n
        if self.u.ndim != n:
            raise ValueError(f"height grid must have {n} axes")
        if any(s < 8 for s in self.u.shape):
            raise ValueError("grid resolution must be at least 8 per axis")
        if len(self.box) != n or len(self.periodic) != n:
            raise ValueError("need one box range and periodic flag per axis")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        # the box corner farthest from the chart origin
        self.W.fiber.check_points(np.max(np.abs(self.box), axis=1), "box")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("height field must be finite")
        p = self.W.profile
        if np.min(self.u) < p.t_min or np.max(self.u) > p.t_max:
            raise ValueError("height field exits the profile interval")

    @classmethod
    def from_function(cls, W: WarpedProduct, fn, shape, box=None,
                      periodic=None, orientation: int = 1) -> "GraphImmersion":
        if isinstance(shape, int):
            shape = (shape,) * W.fiber.n
        if any(s < 8 for s in shape):
            raise ValueError("grid resolution must be at least 8 per axis")
        if box is None:
            box = W.fiber.default_box()
        if periodic is None:
            periodic = W.fiber.periodic
        axes, _ = _axes_from_box(box, shape, periodic)
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        u = np.asarray(fn(mesh), dtype=float)
        return cls(W=W, u=u, box=tuple(tuple(b) for b in box),
                   periodic=tuple(bool(p) for p in periodic),
                   orientation=orientation, fn=fn)

    @property
    def shape(self):
        return self.u.shape

    @property
    def spacing(self):
        return _axes_from_box(self.box, self.shape, self.periodic)[1]

    def axes(self):
        return _axes_from_box(self.box, self.shape, self.periodic)[0]

    def mesh(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)

    def flipped(self) -> "GraphImmersion":
        """The same graph with the opposite normal, built once, so its
        memoized geometry serves every later caller.  Only this side holds
        the link: a link back would make a reference cycle."""
        if self._flipped is None:
            object.__setattr__(self, "_flipped",
                               replace(self, orientation=-self.orientation))
        return self._flipped

    def refined(self) -> "GraphImmersion":
        """Dyadic refinement; requires the generating function."""
        if self.fn is None:
            raise ValueError("refinement needs an immersion built from a function")
        shape = tuple(2 * s if per else 2 * (s - 1) + 1
                      for s, per in zip(self.shape, self.periodic))
        return GraphImmersion.from_function(
            self.W, self.fn, shape, box=self.box, periodic=self.periodic,
            orientation=self.orientation)


def require_audited_node(imm: GraphImmersion,
                         cfg: DiscretizationConfig) -> None:
    """Refuse a grid whose audit margin covers every node: an audit over no
    node would have nothing to report."""
    if not interior_mask(imm.shape, imm.periodic, cfg.margin_cells).any():
        raise ValueError(f"no node of the {imm.shape} grid is outside the "
                         f"{cfg.margin_cells}-cell audit margin")


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

def _trigonometric_field(box, rng: np.random.Generator, max_mode: int):
    """Low-frequency trigonometric sum on ``box``, as a closed form.

    Sums ``a cos + b sin`` waves over integer frequency vectors with
    sup-norm at most ``max_mode`` (conjugate pairs collapsed), with
    standard-normal coefficients drawn from ``rng`` in a fixed order, so
    equal seeds give equal fields.  Returns the field, a function of the
    stacked mesh (..., n), and its terms as ``(mode, a, b)``.
    """
    _check_box(box)
    n = len(box)
    terms = []
    for mode in itertools.product(range(-max_mode, max_mode + 1), repeat=n):
        if all(m == 0 for m in mode):
            continue
        first = next(m for m in mode if m != 0)
        if first < 0:        # keep one representative per conjugate pair
            continue
        terms.append((mode, rng.normal(), rng.normal()))
    los = [float(lo) for lo, _ in box]
    lengths = [float(hi) - float(lo) for lo, hi in box]

    def raw(mesh):
        mesh = np.asarray(mesh, dtype=float)
        dev = np.zeros(mesh.shape[:-1])
        for mode, a, b in terms:
            phase = np.zeros(mesh.shape[:-1])
            for ax_i, m in enumerate(mode):
                if m:
                    phase = phase + (2.0 * math.pi * m
                                     * (mesh[..., ax_i] - los[ax_i]) / lengths[ax_i])
            dev = dev + a * np.cos(phase) + b * np.sin(phase)
        return dev

    return raw, terms


def _sample_peak(raw, terms, box, periodic, samples: int) -> float:
    """Largest ``|raw|`` over ``samples`` points per axis of ``box``.

    The field is periodic on ``box``, so the samples of a periodic axis
    sit at the phases 2 pi j / N of its modes, N = ``samples``, and those
    of a non-periodic axis, which keep the far edge, at N = ``samples - 1``
    phases plus a repeat of the first.  The terms span only |m| <= M per
    axis, M their largest mode, so one table of e^{2 pi i (m j mod N) / N}
    per axis, over all ``samples`` columns, gives the field at every
    sample up to rounding.  Contracting the (2M+1)^n coefficient tensor
    with the tables of the first n-1 axes leaves one row per sample of
    those axes, holding the 2M+1 last-axis coefficients G_m of a real
    trigonometric polynomial, so |Re G_0| + sum_{m>0} |G_m + conj G_-m|
    bounds the row at every one of its samples, aliased or not.  The row
    of largest bound gives a first maximum; only the rows whose bound
    reaches within 1e-9 relative of it are evaluated, since no other row
    can hold a sample that close to the peak.  That only locates the
    peak: the closed form is evaluated at the samples within 1e-9
    relative of the located maximum, so the result equals the maximum
    over every sample.
    """
    top = max(abs(m) for mode, _, _ in terms for m in mode)
    modes = np.arange(-top, top + 1)
    coeffs = np.zeros((modes.size,) * len(box), dtype=complex)
    for mode, a, b in terms:
        # Re((a - ib) e^{i phase}) = a cos(phase) + b sin(phase)
        coeffs[tuple(m + top for m in mode)] += complex(a, -b)
    tables = []
    for per in periodic:
        size = samples if per else samples - 1
        # phases reduced exactly, so aliased modes get their bin's table
        # and the far edge of a non-periodic axis repeats the first column
        phases = np.outer(modes, np.arange(samples)) % size
        tables.append(np.exp((2j * math.pi / size) * phases))
    rows = coeffs
    for table in tables[:-1]:
        # contracts the leading mode axis, appends the sample axis
        rows = np.tensordot(rows, table, axes=([0], [0]))
    rows = rows.reshape(modes.size, -1)       # G_m of each row, C order
    # sum |a| + |b| over the terms exceeds sum |Re G_m| + |Im G_m| on every
    # row, so 1e-12 of it covers the rounding of a row's evaluation, however
    # much G_m and conj G_-m cancel in the bound
    bound = (np.abs(rows[top].real)
             + np.abs(rows[top + 1:] + rows[top - 1::-1].conj()).sum(axis=0)
             + 1e-12 * sum(abs(a) + abs(b) for _, a, b in terms))
    # the last axis in real arithmetic: Re(G t) = Re G Re t - Im G Im t
    last = np.concatenate([tables[-1].real, -tables[-1].imag])

    def located(rows_at):
        return np.abs(np.tensordot(
            np.concatenate([rows.real[:, rows_at], rows.imag[:, rows_at]]),
            last, axes=([0], [0])))

    # a row whose bound falls more than 1e-9 relative (plus a rounding
    # margin) below the first maximum holds no sample that close to the peak
    best = located([np.argmax(bound)]).max()
    candidates = np.flatnonzero(bound >= (1.0 - 1e-9) * best * (1.0 - 1e-12))
    values = located(candidates)
    row, column = np.nonzero(values >= (1.0 - 1e-9) * values.max())
    near = np.unravel_index(candidates[row] * samples + column,
                            (samples,) * len(box))
    axes = [np.linspace(lo, hi, samples, endpoint=not per)
            for (lo, hi), per in zip(box, periodic)]
    points = np.stack([ax[idx] for ax, idx in zip(axes, near)], axis=-1)
    return float(np.max(np.abs(raw(points))))


def random_height_function(box, periodic, rng: np.random.Generator,
                           amplitude: float = 0.2, max_mode: int = 1):
    """Normalized low-frequency trigonometric deviation, as a closed form.

    The field of ``_trigonometric_field``, rescaled so its sup-norm over
    64 points per axis of the box (the far edge dropped on periodic axes)
    equals ``amplitude``.  Returning a function of the stacked mesh
    (..., n) keeps the generated immersion refinable.  Raises ValueError
    for ``max_mode`` < 1, which leaves no mode to draw.
    """
    if max_mode < 1:
        raise ValueError(f"max_mode={max_mode} must be at least 1; with no "
                         f"mode the deviation is zero")
    raw, terms = _trigonometric_field(box, rng, max_mode)
    peak = _sample_peak(raw, terms, box, periodic, 64)
    scale = amplitude / peak if peak > 0.0 else 0.0
    return lambda mesh: scale * raw(mesh)


# ---------------------------------------------------------------------------
# geometry evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryGrid:
    """All per-node geometric fields of a graph immersion.

    Index conventions: grid axes first, then tensor indices; P~_k is read
    through ``newton_tensor(k)`` and ``H`` holds H_0..H_n on the last axis.
    Storage is component-major: each tensor field is the node-major view
    of a C-contiguous buffer with its component axes first, so each
    component (``_grid.components(field, k)[i, j]``) is one contiguous
    grid.  The flat chart's constant fiber fields are broadcast views.

    Frozen, so the grids memoized from its fields stay valid: the chart
    covariant Hessians of ``u`` and ``sigma``, the curvature kernel
    vectors of ``div_pk`` and the Newton-spectrum minima.  The memo
    belongs to the instance, so ``dataclasses.replace`` starts an empty
    one and a doctored grid never reads what the original's fields built.
    """

    imm: GraphImmersion
    cfg: DiscretizationConfig
    u: np.ndarray
    du: np.ndarray           # chart partials u_i (..., n)
    ghat: np.ndarray
    gammahat: np.ndarray     # fiber Christoffels, analytic (..., k, i, j)
    rho: np.ndarray
    drho: np.ndarray
    hcal: np.ndarray
    dhcal: np.ndarray
    sigma: np.ndarray
    L: np.ndarray            # Cholesky factor of the metric, g = L L^T
    L_inv: np.ndarray
    normal: np.ndarray       # ambient components (..., n+1), index 0 along T
    a: np.ndarray            # frame components of grad h (..., n)
    II: np.ndarray           # second fundamental form, chart (..., n, n)
    shape_frame: np.ndarray  # A~ = L^-1 II L^-T (..., n, n)
    kappas: np.ndarray       # ascending principal curvatures (..., n)
    H: np.ndarray            # H_0..H_n (..., n+1)
    c: np.ndarray            # c_0..c_{n-1}
    newton: np.ndarray       # frame P~_1..P~_{n-1} (..., n-1, n, n)
    christoffel: np.ndarray  # induced-metric symbols, differenced
    interior: np.ndarray     # mask excluding differencing margins
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _memoized(self, key, build):
        """``build()``, evaluated once per grid; its arrays are read-only."""
        if key not in self._memo:
            value = build()
            for array in (value if isinstance(value, tuple) else (value,)):
                if isinstance(array, np.ndarray):
                    array.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    # -- conversions -------------------------------------------------------
    @property
    def n(self) -> int:
        return self.imm.W.fiber.n

    @property
    def spacing(self):
        return self.imm.spacing

    @property
    def theta(self) -> np.ndarray:
        """Theta = <N, T>, the normal's T component (a read-only view)."""
        return self.normal[..., 0]

    def grad_chart(self, f: np.ndarray) -> np.ndarray:
        """Chart components of grad f (indices up): L^-T L^-1 df."""
        return self.frame_vector_to_chart(self.grad_frame(f))

    def grad_frame(self, f: np.ndarray) -> np.ndarray:
        """Orthonormal-frame components of grad f."""
        return matvec(self.L_inv, gradient(f, self.spacing, self.cfg.order))

    def hess_covariant(self, f: np.ndarray) -> np.ndarray:
        """Covariant Hessian of f on the hypersurface (chart, differenced).

        Those of the grid's own ``u`` and ``sigma`` arrays are differenced
        once per grid and returned read-only.
        """
        def build():
            df, second = hessian(f, self.spacing, self.cfg.order)
            return second - contract_first(self.christoffel, df)
        for name in ("u", "sigma"):
            if f is getattr(self, name):
                return self._memoized(("hess", name), build)
        return build()

    def form_to_frame(self, F: np.ndarray) -> np.ndarray:
        """Frame components of a (0,2) tensor: L^-1 F L^-T."""
        return matmul(matmul(self.L_inv, F), np.swapaxes(self.L_inv, -1, -2))

    def frame_vector_to_chart(self, w: np.ndarray) -> np.ndarray:
        """Chart components of a tangent vector given in the frame:
        L^-T w."""
        return matvec(np.swapaxes(self.L_inv, -1, -2), w)

    def ambient_components(self, v_chart: np.ndarray) -> np.ndarray:
        """Ambient (T, fiber) components of a tangent vector in chart form."""
        out = np.empty((self.n + 1,) + self.u.shape)   # component-major
        out[0] = dot(v_chart, self.du)
        out[1:] = components(v_chart)
        return np.moveaxis(out, 0, -1)

    def divergence(self, Y_chart: np.ndarray) -> np.ndarray:
        """div Y = (det g)^{-1/2} d_i( (det g)^{1/2} Y^i ), differenced."""
        sqrt_det_g = math.prod(self.L[..., i, i] for i in range(self.n))
        out = np.zeros(self.u.shape)
        for i in range(self.n):
            flux = sqrt_det_g * Y_chart[..., i]
            out += diff(flux, i, self.spacing[i], self.cfg.order)
        return out / sqrt_det_g

    def newton_tensor(self, k: int) -> np.ndarray:
        """Frame P~_k, 0 <= k < n; P~_0 = I is a read-only broadcast."""
        if not 0 <= k < self.n:
            raise ValueError(f"Newton index k={k} outside [0, {self.n - 1}]")
        if k == 0:
            return np.broadcast_to(np.eye(self.n), self.shape_frame.shape)
        return self.newton[..., k - 1, :, :]

    def H_safe(self, j: int) -> np.ndarray:
        """H_j, with H_j = 0 for j > n."""
        if j > self.n:
            return np.zeros(self.u.shape)
        return self.H[..., j]

    # -- analytic Hessian forms (frame) -------------------------------------
    def height_hessian_frame(self) -> np.ndarray:
        """Closed-form Hessian of the height: hcal (I - a a^T) + Theta A~."""
        eye = np.eye(self.n)
        outer = self.a[..., :, None] * self.a[..., None, :]
        return (self.hcal[..., None, None] * (eye - outer)
                + self.theta[..., None, None] * self.shape_frame)

    def sigma_hessian_frame(self) -> np.ndarray:
        """Closed-form Hessian of sigma(h): rho' a a^T + rho Hess h."""
        outer = self.a[..., :, None] * self.a[..., None, :]
        return (self.drho[..., None, None] * outer
                + self.rho[..., None, None] * self.height_hessian_frame())


def evaluate_geometry(imm: GraphImmersion, cfg: DiscretizationConfig = None) -> GeometryGrid:
    """Evaluate the induced geometry of a graph on its whole grid.

    Evaluated once per immersion and config: a later call with an equal
    config returns a grid over the same read-only arrays.
    """
    if cfg is None:
        cfg = DiscretizationConfig()
    fields = imm._geometry.get(cfg)
    if fields is None:
        fields = imm._geometry[cfg] = _geometry_fields(imm, cfg)
    return GeometryGrid(imm=imm, cfg=cfg, **fields)


def _require_finite(name: str, *grids) -> None:
    """Refuse differenced fields that overflowed: a spacing whose square
    is normal can still be too fine for the heights over it."""
    if not all(np.isfinite(grid).all() for grid in grids):
        raise ValueError(f"the differenced {name} are not finite: the grid "
                         "spacing is too fine for the stencils")


def _geometry_fields(imm: GraphImmersion, cfg: DiscretizationConfig) -> dict:
    """The per-node fields of ``GeometryGrid``, each array read-only."""
    fiber = imm.W.fiber
    n = fiber.n
    x = imm.mesh()
    u = imm.u
    spacing = imm.spacing
    data = warping_eval(imm.W, u)
    rho, drho = np.asarray(data.rho), np.asarray(data.drho)

    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        du, hess_u = hessian(u, spacing, cfg.order)
    _require_finite("height partials", du, hess_u)
    ghat = fiber.metric(x)
    ghat_inv = fiber.inverse_metric(x)
    gammahat = fiber.christoffel(x)

    # every tensor field is built component-major, as the node-major view
    # of a contiguous buffer, so each component is one contiguous grid
    duc = components(du)
    g = np.multiply(duc[:, None], duc[None, :])
    g += (rho * rho) * components(ghat, 2)
    g = node_major(g, 2)
    try:
        L = cholesky(g)
    except ValueError:
        raise ValueError("singular induced metric on the grid")
    L_inv = lower_triangular_inverse(L)
    L_inv_t = np.swapaxes(L_inv, -1, -2)
    g_inv = matmul(L_inv_t, L_inv)   # raises the Christoffel symbols only

    ghat_inv_du = matvec(ghat_inv, du)
    du_hat_sq = dot(du, ghat_inv_du)
    w_factor = np.sqrt(1.0 + du_hat_sq / (rho * rho))
    sgn = float(imm.orientation)

    # N = sgn/W * (-d/dt + rho^-2 ghat^{jk} u_k d/dx^j); Theta = -sgn/W
    normal = np.empty((n + 1,) + u.shape)
    normal[0] = -sgn / w_factor
    np.multiply(sgn / (w_factor * rho * rho), components(ghat_inv_du),
                out=normal[1:])
    normal = node_major(normal, 1)

    a = matvec(L_inv, du)

    II = np.negative(components(hess_u - contract_first(gammahat, du), 2))
    II += (rho * drho) * components(ghat, 2)
    II += 2.0 * data.hcal * duc[:, None] * duc[None, :]
    II *= sgn / w_factor
    II = node_major(II, 2)

    Ac = components(matmul(matmul(L_inv, II), L_inv_t), 2)
    shape_frame = np.empty(Ac.shape)
    np.add(Ac, np.swapaxes(Ac, 0, 1), out=shape_frame)
    shape_frame *= 0.5
    shape_frame = node_major(shape_frame, 2)
    kappas = symfun.jacobi_eigh_batch(shape_frame, False)

    S = symfun.elementary_symmetric_batch(kappas)
    H = symfun.h_from_s(S)
    c = np.array([symfun.trace_coefficient(n, k) for k in range(n)], dtype=float)
    newton = symfun.newton_family_batch(shape_frame, S)

    # first kind [l, ij] = (d_i g_lj + d_j g_il - d_l g_ij) / 2, raised; g
    # is symmetric bit for bit, so d_m g_ij and [l, ij] are too: only
    # i <= j is differenced and raised, summing over l as matvec does
    iu = np.triu_indices(n)
    g_upper = components(g, 2)[iu]
    dg = np.empty((n, n, n) + u.shape)   # dg[i, j, m] = d_m g_ij
    christoffel = np.empty(dg.shape)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        for m, h in enumerate(spacing):
            d_m = diff(g_upper, m + 1, h, cfg.order)
            dg[iu[0], iu[1], m] = dg[iu[1], iu[0], m] = d_m
        for i, j in zip(*iu):
            first = 0.5 * (dg[:, j, i] + dg[i, :, j] - dg[i, j])
            christoffel[:, i, j] = christoffel[:, j, i] = components(
                matvec(g_inv, np.moveaxis(first, 0, -1)))
    _require_finite("Christoffel symbols", christoffel)
    christoffel = np.moveaxis(christoffel, (0, 1, 2), (-3, -2, -1))

    interior = interior_mask(u.shape, imm.periodic, cfg.margin_cells)

    fields = dict(
        u=u, du=du,
        ghat=ghat, gammahat=gammahat,
        rho=rho, drho=drho,
        hcal=np.asarray(data.hcal), dhcal=np.asarray(data.dhcal),
        sigma=np.asarray(data.sigma),
        L=L, L_inv=L_inv, normal=normal, a=a,
        II=II, shape_frame=shape_frame, kappas=kappas,
        H=H, c=c, newton=newton,
        christoffel=christoffel, interior=interior,
    )
    # every grid of this immersion and config shares them
    for value in fields.values():
        value.flags.writeable = False
    return fields


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

def structure_identities(geom: GeometryGrid) -> dict:
    """Pointwise residuals of the gradient/Hessian structure of the height.

    * ``unit-decomposition``: |grad h|^2 + Theta^2 - 1 (algebraic).
    * ``gradient-decomposition``: chart components of grad h by the
      Cholesky route L^-T a = L^-T L^-1 du against the tangential part
      of T - Theta N from the normal's closed form (algebraic).
    * ``height-hessian``: covariant differenced Hessian of h against the
      closed form hcal (g - dh x dh) + Theta II (converges at stencil
      order).
    * ``sigma-hessian``: same discipline for sigma(h).
    """
    mask = geom.interior
    out = {}

    unit = dot(geom.a, geom.a) + geom.theta ** 2 - 1.0
    out["unit-decomposition"] = {"grid": unit, "max": masked_max(unit, mask)}

    tang = -geom.theta[..., None] * geom.normal[..., 1:]
    gdec = geom.frame_vector_to_chart(geom.a) - tang
    out["gradient-decomposition"] = {"grid": gdec, "max": masked_max(gdec, mask)}

    hess_fd = geom.hess_covariant(geom.u)
    outer = geom.du[..., :, None] * geom.du[..., None, :]
    g = outer + (geom.rho * geom.rho)[..., None, None] * geom.ghat
    hess_closed = geom.hcal[..., None, None] * (g - outer) \
        + geom.theta[..., None, None] * geom.II
    hh = hess_fd - hess_closed
    out["height-hessian"] = {"grid": hh, "max": masked_max(hh, mask)}

    sig_fd = geom.hess_covariant(geom.sigma)
    sig_closed = geom.drho[..., None, None] * outer \
        + geom.rho[..., None, None] * hess_closed
    sh = sig_fd - sig_closed
    out["sigma-hessian"] = {"grid": sh, "max": masked_max(sh, mask)}
    return out


# ---------------------------------------------------------------------------
# extrinsic distance probe
# ---------------------------------------------------------------------------

def extrinsic_gamma_probe(geom: GeometryGrid, origin) -> dict:
    """Squared fiber distance pulled back to the graph, with its bounds.

    Checks pointwise that |grad gamma| <= 2 sqrt(gamma)/rho(h), and the
    Hessian decomposition

        Hess_Sigma gamma_ij = HessP gammahat_ij
            - hcal (dgamma_i u_j + u_i dgamma_j) + <grad~ gamma~, N> II_ij

    as a residual that converges at the stencil order (the left side
    covariantly differenced with the induced-metric symbols).
    """
    fiber = geom.imm.W.fiber
    gamma, dgamma, hessP, window = fiber.gamma_hat_data(geom.imm.mesh(), origin)
    mask = geom.interior & window

    grad_frame = np.einsum("...ij,...j->...i", geom.L_inv, dgamma)
    grad_norm = np.sqrt(np.einsum("...i,...i->...", grad_frame, grad_frame))
    bound = 2.0 * np.sqrt(np.maximum(gamma, 0.0)) / geom.rho
    margin = bound - grad_norm

    # left side: d^2 gamma - Gamma^Sigma d gamma, with the chart second
    # partials reconstructed from the closed fiber Hessian
    d2gamma = hessP + np.einsum("...kij,...k->...ij", geom.gammahat, dgamma)
    lhs = d2gamma - np.einsum("...kij,...k->...ij", geom.christoffel, dgamma)

    normal_fiber_inner = np.einsum("...i,...i->...", dgamma, geom.normal[..., 1:])
    rhs = hessP \
        - geom.hcal[..., None, None] * (dgamma[..., :, None] * geom.du[..., None, :]
                                        + geom.du[..., :, None] * dgamma[..., None, :]) \
        + normal_fiber_inner[..., None, None] * geom.II
    resid = lhs - rhs

    return {
        "min_margin": float(np.min(margin[mask])) if np.any(mask) else float("nan"),
        # vacuous on an empty audit region, so it does not hold there
        "gradient_bound_holds": bool(np.any(mask)
                                     and np.all(margin[mask] >= -1e-10)),
        "hessian_max": masked_max(resid, mask),
    }


# ---------------------------------------------------------------------------
# sectional curvature audit
# ---------------------------------------------------------------------------

def sectional_bound_report(geom: GeometryGrid) -> dict:
    """Gauss-equation sectional curvatures over orthonormal frame pairs.

    For each frame pair (E_i, E_j):

        K_Sigma = K_amb + A~_ii A~_jj - A~_ij^2,
        K_amb   = (kappa/rho^2)(1 - a_i^2 - a_j^2) - hcal^2 - hcal'(a_i^2+a_j^2),

    with a_i = <E_i, grad h>.  The report asserts the chain
    K_Sigma >= K_amb - 2|A|^2 and the fiber-term bound
    (kappa/rho^2) wedge >= -|kappa|/rho^2 pointwise, and returns the
    realized global lower bounds: NaN minima and no bound held at n = 1,
    which has no frame pair, or on a grid with no audited node, where
    holding would be vacuous.
    """
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    m = geom.interior
    if n < 2 or not m.any():
        return {"sectional_min": math.nan, "ambient_min": math.nan,
                "chain_holds": False, "fiber_bound_holds": False}
    tol = 1e-10
    a2 = geom.a ** 2
    rho2 = geom.rho ** 2
    norm_A_sq = np.einsum("...ij,...ij->...", geom.shape_frame, geom.shape_frame)

    sigma_mins, amb_mins = [], []
    chain_ok = fiber_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            wedge = 1.0 - a2[..., i] - a2[..., j]
            fiber_term = kappa / rho2 * wedge
            k_amb = fiber_term - geom.hcal ** 2 \
                - geom.dhcal * (a2[..., i] + a2[..., j])
            k_sig = k_amb + geom.shape_frame[..., i, i] * geom.shape_frame[..., j, j] \
                - geom.shape_frame[..., i, j] ** 2
            sigma_mins.append(np.min(k_sig[m]))
            amb_mins.append(np.min(k_amb[m]))
            chain_ok &= bool(np.all(k_sig[m] >= (k_amb - 2.0 * norm_A_sq)[m] - tol))
            fiber_ok &= bool(np.all(fiber_term[m] >= -abs(kappa) / rho2[m] - tol))

    return {
        "sectional_min": min_or_nan(sigma_mins),
        "ambient_min": min_or_nan(amb_mins),
        "chain_holds": chain_ok,
        "fiber_bound_holds": fiber_ok,
    }


# ---------------------------------------------------------------------------
# refinement windows
# ---------------------------------------------------------------------------

def audit_window(imm: GraphImmersion, trim) -> np.ndarray:
    """Mask of nodes at physical distance >= trim[i] from non-periodic edges.

    Convergence studies fix the trim from the coarsest level so every
    refinement audits the same physical window.
    """
    axes = imm.axes()
    mask = np.ones(imm.shape, dtype=bool)
    for i, (per, ax) in enumerate(zip(imm.periodic, axes)):
        if per:
            continue
        lo, hi = imm.box[i]
        good = (ax >= lo + trim[i] - 1e-12) & (ax <= hi - trim[i] + 1e-12)
        shape = [1] * len(imm.shape)
        shape[i] = ax.size
        mask &= good.reshape(shape)
    return mask


def coarsest_trim(imm: GraphImmersion, cfg: DiscretizationConfig):
    """Physical trim widths implied by the margins at this resolution."""
    return tuple(0.0 if per else cfg.margin_cells * h
                 for per, h in zip(imm.periodic, imm.spacing))
