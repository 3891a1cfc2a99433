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
from ._grid import (components, contract_first, diff, dot, gradient, hessian,
                    interior_mask, lower_triangular_inverse, masked_max,
                    matmul, matvec, min_or_nan, stencil_radius)
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
        if self.order not in (2, 4):
            raise ValueError("stencil order must be 2 or 4")
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
    """Per-axis coordinates and spacing: periodic axes drop the endpoint."""
    _check_box(box)
    axes, spacing = [], []
    for (lo, hi), n_pts, per in zip(box, shape, periodic):
        if per:
            h = (hi - lo) / n_pts
            axes.append(lo + h * np.arange(n_pts))
        else:
            h = (hi - lo) / (n_pts - 1)
            axes.append(lo + h * np.arange(n_pts))
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
    axis, M their largest mode, so contracting their (2M+1)^n coefficient
    tensor with one table of e^{2 pi i m j / N} per axis gives the field
    at every sample up to rounding, without an N^n transform.  That only
    locates the peak: the closed form is evaluated at the samples within
    1e-9 relative of the located maximum, so the result equals the
    maximum over every sample.
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
        tables.append(np.exp((2j * math.pi / size)
                             * (np.outer(modes, np.arange(size)) % size)))
    field = coeffs
    for table in tables[:-1]:
        # contracts the leading mode axis, appends the sample axis
        field = np.tensordot(field, table, axes=([0], [0]))
    # the last axis in real arithmetic: Re(F t) = Re F Re t - Im F Im t
    field = np.tensordot(np.concatenate([field.real, field.imag]),
                         np.concatenate([tables[-1].real, -tables[-1].imag]),
                         axes=([0], [0]))
    field = np.pad(np.abs(field),
                   [(0, 0) if per else (0, 1) for per in periodic], mode="wrap")
    axes = [np.linspace(lo, hi, samples, endpoint=not per)
            for (lo, hi), per in zip(box, periodic)]
    near = np.nonzero(field >= (1.0 - 1e-9) * field.max())
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

@dataclass
class GeometryGrid:
    """All per-node geometric fields of a graph immersion.

    Index conventions: grid axes first, then tensor indices.  ``newton``
    stacks the frame Newton tensors ``P~_k`` as ``newton[..., k, :, :]``
    for k = 0..n-1; ``H`` holds H_0..H_n along the last axis.
    """

    imm: GraphImmersion
    cfg: DiscretizationConfig
    x: np.ndarray            # fiber chart mesh (..., n)
    u: np.ndarray
    du: np.ndarray           # chart partials u_i (..., n)
    ghat: np.ndarray
    gammahat: np.ndarray     # fiber Christoffels, analytic (..., k, i, j)
    rho: np.ndarray
    drho: np.ndarray
    hcal: np.ndarray
    dhcal: np.ndarray
    sigma: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    L: np.ndarray
    L_inv: np.ndarray
    sqrt_det_g: np.ndarray
    theta: np.ndarray
    normal: np.ndarray       # ambient components (..., n+1), index 0 along T
    a: np.ndarray            # frame components of grad h (..., n)
    grad_h_chart: np.ndarray
    II: np.ndarray           # second fundamental form, chart (..., n, n)
    shape_frame: np.ndarray  # A~ = L^-1 II L^-T (..., n, n)
    kappas: np.ndarray       # ascending principal curvatures (..., n)
    H: np.ndarray            # H_0..H_n (..., n+1)
    c: np.ndarray            # c_0..c_{n-1}
    newton: np.ndarray       # frame P~ stack (..., n, n, n)
    christoffel: np.ndarray  # induced-metric symbols, differenced
    interior: np.ndarray     # mask excluding differencing margins

    # -- conversions -------------------------------------------------------
    @property
    def n(self) -> int:
        return self.imm.W.fiber.n

    @property
    def spacing(self):
        return self.imm.spacing

    def grad_chart(self, f: np.ndarray) -> np.ndarray:
        """Chart components of grad f (indices up)."""
        return matvec(self.g_inv, gradient(f, self.spacing, self.cfg.order))

    def grad_frame(self, f: np.ndarray) -> np.ndarray:
        """Orthonormal-frame components of grad f."""
        return matvec(self.L_inv, gradient(f, self.spacing, self.cfg.order))

    def hess_covariant(self, f: np.ndarray) -> np.ndarray:
        """Covariant Hessian of f on the hypersurface (chart, differenced)."""
        df, second = hessian(f, self.spacing, self.cfg.order)
        return second - contract_first(self.christoffel, df)

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
        out = np.zeros(self.u.shape)
        for i in range(self.n):
            flux = self.sqrt_det_g * Y_chart[..., i]
            out += diff(flux, i, self.spacing[i], self.cfg.order)
        return out / self.sqrt_det_g

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


def _geometry_fields(imm: GraphImmersion, cfg: DiscretizationConfig) -> dict:
    """The per-node fields of ``GeometryGrid``, each array read-only."""
    fiber = imm.W.fiber
    n = fiber.n
    x = imm.mesh()
    u = imm.u
    spacing = imm.spacing
    data = warping_eval(imm.W, u)
    rho, drho = np.asarray(data.rho), np.asarray(data.drho)

    du, hess_u = hessian(u, spacing, cfg.order)
    ghat = fiber.metric(x)
    ghat_inv = fiber.inverse_metric(x)
    gammahat = fiber.christoffel(x)

    g = du[..., :, None] * du[..., None, :] + (rho * rho)[..., None, None] * ghat
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise ValueError("singular induced metric on the grid")
    L_inv = lower_triangular_inverse(L)
    L_inv_t = np.swapaxes(L_inv, -1, -2)
    g_inv = matmul(L_inv_t, L_inv)
    sqrt_det_g = np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)

    ghat_inv_du = matvec(ghat_inv, du)
    du_hat_sq = dot(du, ghat_inv_du)
    w_factor = np.sqrt(1.0 + du_hat_sq / (rho * rho))
    sgn = float(imm.orientation)
    theta = -sgn / w_factor

    # N = sgn/W * (-d/dt + rho^-2 ghat^{jk} u_k d/dx^j)
    n_fiber = (sgn / (w_factor * rho * rho))[..., None] * ghat_inv_du
    normal = np.concatenate([theta[..., None], n_fiber], axis=-1)

    a = matvec(L_inv, du)
    # Sherman-Morrison: g^{-1} du = ghat^{-1} du / (rho^2 W^2)
    grad_h_chart = ghat_inv_du / (rho * rho * w_factor * w_factor)[..., None]

    hess_u_fiber = hess_u - contract_first(gammahat, du)
    II = (sgn / w_factor)[..., None, None] * (
        -hess_u_fiber
        + (rho * drho)[..., None, None] * ghat
        + 2.0 * data.hcal[..., None, None] * du[..., :, None] * du[..., None, :])

    A = matmul(matmul(L_inv, II), L_inv_t)
    # stored node-major: the eigen-solves and symfun's batched products
    # read it one node at a time
    shape_frame = np.empty(A.shape)
    np.add(A, np.swapaxes(A, -1, -2), out=shape_frame)
    shape_frame *= 0.5
    kappas = np.linalg.eigvalsh(shape_frame)

    S = symfun.elementary_symmetric_batch(kappas)
    H = symfun.h_from_s(S)
    c = np.array([symfun.trace_coefficient(n, k) for k in range(n)], dtype=float)
    newton = symfun.newton_family_batch(shape_frame, S)

    dg = np.stack([diff(g, axis_i, spacing[axis_i], cfg.order) for axis_i in range(n)],
                  axis=-3)
    # first kind [l, i, j] = (d_i g_lj + d_j g_il - d_l g_ij) / 2, raised once
    first = 0.5 * (np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg)
    del dg   # the product below allocates next; keep the peak down
    christoffel = matmul(g_inv, first.reshape(u.shape + (n, n * n))
                         ).reshape(first.shape)

    interior = interior_mask(u.shape, imm.periodic, cfg.margin_cells)

    fields = dict(
        x=x, u=u, du=du,
        ghat=ghat, gammahat=gammahat,
        rho=rho, drho=drho,
        hcal=np.asarray(data.hcal), dhcal=np.asarray(data.dhcal),
        sigma=np.asarray(data.sigma),
        g=g, g_inv=g_inv, L=L, L_inv=L_inv, sqrt_det_g=sqrt_det_g,
        theta=theta, normal=normal,
        a=a, grad_h_chart=grad_h_chart,
        II=II, shape_frame=shape_frame, kappas=kappas,
        H=H, c=c, newton=newton,
        christoffel=christoffel, interior=interior,
    )
    # every grid of this immersion and config shares them
    for value in fields.values():
        value.flags.writeable = False
    return fields


@dataclass(frozen=True)
class PointGeometry:
    """Per-node package; ``grad_h`` and ``newton`` live in the orthonormal
    frame, the shape operator ``A`` is the chart-mixed g^{-1} II."""

    h: float
    grad_h: np.ndarray
    Theta: float
    N: np.ndarray
    g: np.ndarray
    A: np.ndarray
    kappas: np.ndarray
    newton: symfun.NewtonFamily


def point_geometry(geom: GeometryGrid, idx) -> PointGeometry:
    """Extract one node, rebuilding its algebra through the per-point
    (Jacobi-based) route rather than the batched sweeps."""
    idx = tuple(idx)
    A_frame = geom.shape_frame[idx]
    fam = symfun.newton_family(A_frame)
    A_chart = np.einsum("ij,jk->ik", geom.g_inv[idx], geom.II[idx])
    return PointGeometry(
        h=float(geom.u[idx]),
        grad_h=geom.a[idx].copy(),
        Theta=float(geom.theta[idx]),
        N=geom.normal[idx].copy(),
        g=geom.g[idx].copy(),
        A=A_chart,
        kappas=symfun.jacobi_eigenvalues(A_frame),
        newton=fam,
    )


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

def structure_identities(geom: GeometryGrid) -> dict:
    """Pointwise residuals of the gradient/Hessian structure of the height.

    * ``unit-decomposition``: |grad h|^2 + Theta^2 - 1 (algebraic).
    * ``gradient-decomposition``: chart components of grad h against the
      tangential part of T - Theta N (algebraic).
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
    gdec = geom.grad_h_chart - tang
    out["gradient-decomposition"] = {"grid": gdec, "max": masked_max(gdec, mask)}

    hess_fd = geom.hess_covariant(geom.u)
    outer = geom.du[..., :, None] * geom.du[..., None, :]
    hess_closed = geom.hcal[..., None, None] * (geom.g - outer) \
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
    gamma, dgamma, hessP, window = fiber.gamma_hat_data(geom.x, origin)
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
    realized global lower bounds.
    """
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    mask = geom.interior
    tol = 1e-10
    a2 = geom.a ** 2
    rho2 = geom.rho ** 2
    norm_A_sq = np.einsum("...ij,...ij->...", geom.shape_frame, geom.shape_frame)

    sigma_mins, amb_mins = [], []
    chain_ok = True
    fiber_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            wedge = 1.0 - a2[..., i] - a2[..., j]
            fiber_term = kappa / rho2 * wedge
            k_amb = fiber_term - geom.hcal ** 2 \
                - geom.dhcal * (a2[..., i] + a2[..., j])
            k_sig = k_amb + geom.shape_frame[..., i, i] * geom.shape_frame[..., j, j] \
                - geom.shape_frame[..., i, j] ** 2
            m = mask
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
