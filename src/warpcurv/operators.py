"""The operator family L_k = Tr(P_k Hess) and its curvature identities.

Every identity is evaluated along two routes:

* an *algebraic* route in which the Hessian of the height (or of
  sigma(h)) is replaced by its closed form, so the residual isolates
  pure matrix algebra and must sit at rounding level; and
* a *differenced* route in which the left side is computed by covariant
  finite differencing, so the residual converges at the stencil order.

Divergences of the Newton tensors get three independent computations
(direct covariant differencing, the constant-curvature closed form, and
the ambient-curvature sum); the pairwise residuals separate stencil
error from algebra error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import symfun
from ._grid import (components, diff, dot, fit_order, masked_max, matmul,
                    matvec, trace_product)
from .ambient import curvature_tensor_components, profile_summary
from .hypersurface import (DiscretizationConfig, GeometryGrid, GraphImmersion,
                           audit_window, coarsest_trim, evaluate_geometry)


class NotApplicableError(ValueError):
    """An operation's positivity precondition fails on this geometry."""


@dataclass
class IdentityResidual:
    """Residual grid of one curvature identity, with its audit summary."""

    grid: np.ndarray
    max: float


def _require_geom(imm, cfg, geom) -> GeometryGrid:
    if geom is not None:
        return geom
    return evaluate_geometry(imm, cfg)


def _check_k(geom: GeometryGrid, k: int, lo: int = 0, hi: int = None):
    hi = geom.n - 1 if hi is None else hi
    if not lo <= k <= hi:
        raise ValueError(f"operator index k={k} outside [{lo}, {hi}]")


def _frame_quadratic(P: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<v, P w> on the grid."""
    return dot(v, matvec(P, w))


# ---------------------------------------------------------------------------
# the basic operators
# ---------------------------------------------------------------------------

def lk_apply(geom: GeometryGrid, k: int, f: np.ndarray) -> np.ndarray:
    """L_k f = Tr(P_k Hess f), covariant Hessian by differencing."""
    Hf = geom.form_to_frame(geom.hess_covariant(np.asarray(f, dtype=float)))
    return trace_product(geom.newton_tensor(k), Hf)


def laplace_beltrami(geom: GeometryGrid, f: np.ndarray) -> np.ndarray:
    """Independent divergence-form Laplacian: det^-1/2 d(det^1/2 g^ij d_j f).

    Kept deliberately separate from ``lk_apply`` so the k = 0 trace path
    has a non-circular cross-check.
    """
    return geom.divergence(geom.grad_chart(np.asarray(f, dtype=float)))


def frak_apply(geom: GeometryGrid, k: int, f: np.ndarray) -> np.ndarray:
    """Divergence-form operator div(P_k grad f), differenced."""
    P_chart = chart_mixed_newton(geom, k)
    Y = matvec(P_chart, geom.grad_chart(np.asarray(f, dtype=float)))
    return geom.divergence(Y)


def chart_mixed_newton(geom: GeometryGrid, k: int) -> np.ndarray:
    """P_k as a chart-mixed (1,1) tensor: L^-T P~_k L^T."""
    return matmul(matmul(np.swapaxes(geom.L_inv, -1, -2),
                         geom.newton_tensor(k)),
                  np.swapaxes(geom.L, -1, -2))


def _audited(geom: GeometryGrid) -> np.ndarray:
    """The audited-node mask, refusing a grid that has no audited node."""
    if not geom.interior.any():
        raise NotApplicableError("no audited node on this grid")
    return geom.interior


def _newton_min(geom: GeometryGrid, k: int) -> float:
    """Least eigenvalue of P_0..P_{k-1} over the audited nodes, read in
    closed form from the principal curvatures (NaN if any entry is).

    The spectrum is built once per geometry, and only its n prefix minima
    are kept."""
    def build():
        spectrum = symfun.newton_spectrum_batch(geom.kappas[geom.interior])
        return tuple(float(np.min(spectrum[..., :m, :]))
                     for m in range(1, geom.n + 1))
    return geom._memoized("newton_min", build)[k - 1]


def _nonpositive_node(geom: GeometryGrid, Hk: np.ndarray):
    """The audited node of least H_k when H_k is not positive on every
    audited node (NaN is not), else None.

    Next to a non-periodic edge the wrapped stencils leave H_k
    meaningless, and those nodes are never audited.
    """
    audited = np.where(geom.interior, Hk, np.inf)
    if float(np.min(audited)) > 0.0:
        return None
    return tuple(int(i) for i in
                 np.unravel_index(int(np.argmin(audited)), Hk.shape))


# ---------------------------------------------------------------------------
# height / sigma identities
# ---------------------------------------------------------------------------

def height_sigma_identities(imm: GraphImmersion, k: int,
                            cfg: DiscretizationConfig = None,
                            geom: GeometryGrid = None) -> dict:
    """Residuals of the L_k(height) and L_k(sigma of height) formulas.

    L_k h       = hcal (c_k H_k - <P_k grad h, grad h>) + c_k Theta H_{k+1}
    L_k sigma(h) = c_k rho (hcal H_k + Theta H_{k+1})

    Keys ``height``/``sigma`` difference the left side; the
    ``*_algebraic`` keys use the closed-form Hessians and must vanish to
    rounding.
    """
    geom = _require_geom(imm, cfg, geom)
    mask = geom.interior
    P = geom.newton_tensor(k)
    ck = geom.c[k]
    quad = _frame_quadratic(P, geom.a, geom.a)
    rhs_h = geom.hcal * (ck * geom.H[..., k] - quad) \
        + ck * geom.theta * geom.H_safe(k + 1)
    rhs_s = ck * geom.rho * (geom.hcal * geom.H[..., k]
                             + geom.theta * geom.H_safe(k + 1))

    lhs_h_fd = lk_apply(geom, k, geom.u)
    lhs_s_fd = lk_apply(geom, k, geom.sigma)
    lhs_h_alg = trace_product(P, geom.height_hessian_frame())
    lhs_s_alg = trace_product(P, geom.sigma_hessian_frame())

    out = {}
    for name, lhs, rhs in (
            ("height", lhs_h_fd, rhs_h),
            ("sigma", lhs_s_fd, rhs_s),
            ("height_algebraic", lhs_h_alg, rhs_h),
            ("sigma_algebraic", lhs_s_alg, rhs_s)):
        grid = lhs - rhs
        out[name] = IdentityResidual(grid, masked_max(grid, mask))
    return out


# ---------------------------------------------------------------------------
# divergence of the Newton tensors
# ---------------------------------------------------------------------------

def default_test_vectors(geom: GeometryGrid):
    """Deterministic tangent test vectors in frame components."""
    eye = np.eye(geom.n)
    return [np.broadcast_to(row, geom.a.shape) for row in eye] + [geom.a]


def _ambient_inner(geom: GeometryGrid, U: np.ndarray, V: np.ndarray,
                   U_low: np.ndarray = None) -> np.ndarray:
    """<U, V> = U_T V_T + rho^2 U_f . ghat . V_f for ambient components.

    The fiber product is summed as sum_j (sum_i U_i ghat_ij) V_j, the
    curvature kernel's order, so that on a diagonal fiber metric it equals
    the single-einsum form bit for bit.  ``U_low`` is ``_lowered(geom, U)``
    when the caller pairs one U with several V."""
    if U_low is None:
        U_low = _lowered(geom, U)
    return U[..., 0] * V[..., 0] + geom.rho ** 2 * dot(U_low, V[..., 1:])


def _lowered(geom: GeometryGrid, U: np.ndarray) -> np.ndarray:
    """sum_i U_i ghat_ij: the fiber part of U lowered by ghat."""
    return matvec(np.swapaxes(geom.ghat, -1, -2), U[..., 1:])


def _frame_to_ambient(geom: GeometryGrid, w: np.ndarray) -> np.ndarray:
    return geom.ambient_components(geom.frame_vector_to_chart(w))


def _kernel_vectors(geom: GeometryGrid) -> tuple:
    """R(E_i, E_a) N in ambient components for the frame pairs i < a, in
    lexicographic order: n(n-1)/2 kernel calls, once per geometry.

    The frame vectors E_i they are built from are the vectors P_0 E_i, so
    the covector row C_0 is paired with them here; they are not kept."""
    def build():
        eye = np.eye(geom.n)
        frame_amb = [
            _frame_to_ambient(geom, np.broadcast_to(eye[i], geom.a.shape))
            for i in range(geom.n)]
        kernels = tuple(
            curvature_tensor_components(
                geom.imm.W.fiber.kappa, geom.rho, geom.hcal, geom.dhcal,
                geom.ghat, frame_amb[i], frame_amb[a], geom.normal)
            for i, a in itertools.combinations(range(geom.n), 2))
        geom._memoized(("covector", 0),
                       lambda: _covector_row(geom, kernels, frame_amb))
        return kernels
    return geom._memoized("kernel", build)


def _covector_row(geom: GeometryGrid, kernels, P_amb) -> np.ndarray:
    """C_j[a] = sum_i <R(E_i, E_a) N, P_j E_i>, component-major (shape
    (n,) + grid), from the kernel vectors and P_j E_i in ambient
    components (``P_amb[i]``).

    The four-term tensor rounds symmetrically under negation, so
    R(E_a, E_i) N = -R(E_i, E_a) N and R(E_i, E_i) N = 0 exactly, and
    lexicographic pairs keep each sum over i increasing.  Each kernel
    vector is lowered once and paired with P_j E_i and P_j E_a.
    """
    C = np.zeros((geom.n,) + geom.u.shape)
    pairs = itertools.combinations(range(geom.n), 2)
    for (i, a), R in zip(pairs, kernels):
        R_low = _lowered(geom, R)
        C[a] += _ambient_inner(geom, R, P_amb[i], R_low)
        C[i] -= _ambient_inner(geom, R, P_amb[a], R_low)
    return C


def _curvature_covectors(geom: GeometryGrid, k: int) -> list:
    """The rows C_j of ``_covector_row`` for j < k.

    sum_i <R(E_i, Y) N, P_j E_i> is linear in Y, so it is
    sum_a C_j[a] Y^a for Y in frame components.  The kernel vectors and
    each row are built once per geometry: a row's sums do not depend on
    k, so every k of one geometry reads the same rows.
    """
    kernels = _kernel_vectors(geom)   # also builds C_0

    def row(j):
        return _covector_row(geom, kernels, [
            _frame_to_ambient(geom, geom.newton_tensor(j)[..., :, i])
            for i in range(geom.n)])
    return [geom._memoized(("covector", j), lambda: row(j))
            for j in range(k)]


def _curvature_route(geom: GeometryGrid, k: int, vecs) -> np.ndarray:
    """Route (c) of ``div_pk``: sum_{j<k} (-1)^{k-1-j} C_j . A^{k-1-j} X
    for each test vector X, stacked on the last axis."""
    C = _curvature_covectors(geom, k)
    out = np.zeros((len(vecs),) + geom.u.shape)
    for total, w in zip(out, vecs):
        y = w   # A^{k-1-j} X, from j = k-1 down
        for j in reversed(range(k)):
            if j < k - 1:
                y = matvec(geom.shape_frame, y)
            yc = components(y)
            total += (-1.0) ** (k - 1 - j) * sum(
                C[j][i] * yc[i] for i in range(geom.n))
    return np.moveaxis(out, 0, -1)


def _direct_divergence(geom: GeometryGrid, k: int) -> np.ndarray:
    """Route (a) of ``div_pk``: chart components of div P_k by covariant
    differencing of the chart-mixed tensor,
    (div P)_j = d_m P^m_j + G^m_{ml} P^l_j - G^l_{mj} P^m_l.

    Only the entries P^m_j differenced along axis m enter the first sum,
    so each row of P is differenced along its own axis only.
    """
    n = geom.n
    Pc = components(chart_mixed_newton(geom, k), 2)
    G = components(geom.christoffel, 3)
    out = np.zeros((n,) + geom.u.shape)
    for m in range(n):
        out += diff(Pc[m], m + 1, geom.spacing[m], geom.cfg.order)
    for j in range(n):
        out[j] += sum(G[m, m, l] * Pc[l, j]
                      for m in range(n) for l in range(n))
        out[j] -= sum(G[l, m, j] * Pc[m, l]
                      for l in range(n) for m in range(n))
    return np.moveaxis(out, 0, -1)


def div_pk(imm: GraphImmersion, k: int, cfg: DiscretizationConfig = None,
           geom: GeometryGrid = None) -> dict:
    """div P_k along three routes, paired against ``default_test_vectors``.

    (a) direct covariant differencing of the chart-mixed tensor;
    (b) the constant-curvature closed form
        -(n-k) Theta (kappa/rho^2 + hcal') P_{k-1} grad h;
    (c) the ambient-curvature sum
        <div P_k, X> = sum_{j<k} sum_i (-1)^{k-1-j}
                          <R(E_i, A^{k-1-j} X) N, P_j E_i>,
        paired as sum_{j<k} (-1)^{k-1-j} C_j . A^{k-1-j} X with the
        covector C_j[a] = sum_i <R(E_i, E_a) N, P_j E_i>, since the sum
        over i is linear in its second slot.  The four-term tensor is
        evaluated once per frame pair i < a and per geometry: n(n-1)/2
        times on the first call, and not again for a later k on the same
        geometry.  Each row C_j is likewise built once per geometry, and
        each test vector costs one dot product per j.

    (a)-(b) and (a)-(c) converge at the stencil order; (b)-(c) agree
    algebraically.
    """
    geom = _require_geom(imm, cfg, geom)
    _check_k(geom, k, lo=1)
    n = geom.n
    mask = geom.interior
    vecs = default_test_vectors(geom)

    div_form = _direct_divergence(geom, k)
    kappa = geom.imm.W.fiber.kappa
    coef = geom.theta * (kappa / geom.rho ** 2 + geom.dhcal)
    Pkm1 = geom.newton_tensor(k - 1)

    a, b = np.empty((2, len(vecs)) + geom.u.shape)
    for a_w, b_w, w in zip(a, b, vecs):
        a_w[...] = dot(div_form, geom.frame_vector_to_chart(w))
        b_w[...] = -(n - k) * coef * _frame_quadratic(Pkm1, geom.a, w)
    a, b = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    c = _curvature_route(geom, k, vecs)
    return {
        "residual_ab": IdentityResidual(a - b, masked_max(a - b, mask)),
        "residual_ac": IdentityResidual(a - c, masked_max(a - c, mask)),
        "residual_bc": IdentityResidual(b - c, masked_max(b - c, mask)),
    }


# ---------------------------------------------------------------------------
# the calligraphic family
# ---------------------------------------------------------------------------

def _calligraphic_grid(geom: GeometryGrid, k: int) -> np.ndarray:
    """The degree-(k-1) calligraphic tensor on the grid (frame)."""
    m = k - 1
    cm = geom.c[m]
    out = np.zeros(geom.shape_frame.shape)
    for j in range(m + 1):
        coef = ((-1.0) ** j * (cm / geom.c[j])
                * geom.hcal ** (m - j) * geom.theta ** j)
        out += coef[..., None, None] * geom.newton_tensor(j)
    return out


def calligraphic_ops(imm: GraphImmersion, k: int,
                     cfg: DiscretizationConfig = None,
                     geom: GeometryGrid = None) -> dict:
    """The hcal/Theta-weighted Newton combination of degree k-1.

    Verifies Tr(Pcal_{k-1} Hess sigma(h))
    = c_{k-1} rho (hcal^k + (-1)^{k-1} Theta^k H_k) along the algebraic
    route (rounding level) and the differenced route (convergent), and
    reports semidefiniteness from the eigenvalues of the combination
    together with the sign hypotheses that would force it: Theta <= 0,
    hcal >= 0 and P_0..P_{k-1} positive definite, whose spectra are read
    in closed form from the principal curvatures.
    """
    geom = _require_geom(imm, cfg, geom)
    if not 2 <= k <= geom.n:
        raise ValueError(f"calligraphic index k={k} outside [2, {geom.n}]")
    mask = _audited(geom)
    Pcal = _calligraphic_grid(geom, k)
    cm = geom.c[k - 1]
    rhs = cm * geom.rho * (geom.hcal ** k
                           + (-1.0) ** (k - 1) * geom.theta ** k * geom.H[..., k])

    lhs_alg = trace_product(Pcal, geom.sigma_hessian_frame())
    Hs = geom.form_to_frame(geom.hess_covariant(geom.sigma))
    lhs_fd = trace_product(Pcal, Hs)

    min_eig = float(np.min(symfun.jacobi_eigh_batch(Pcal[mask], False)))
    theta_max = float(np.max(geom.theta[mask]))
    hcal_min = float(np.min(geom.hcal[mask]))
    newton_min = _newton_min(geom, k)
    hypotheses = (theta_max <= 0.0 and hcal_min >= 0.0 and newton_min > 0.0)

    grid_alg = lhs_alg - rhs
    grid_fd = lhs_fd - rhs
    semidefinite = min_eig >= -1e-10
    return {
        "sigma_identity_algebraic": IdentityResidual(
            grid_alg, masked_max(grid_alg, mask)),
        "sigma_identity": IdentityResidual(grid_fd, masked_max(grid_fd, mask)),
        "min_eigenvalue": min_eig,
        "sign_hypotheses_hold": hypotheses,
        "semidefinite": semidefinite,
        "implication_respected": (not hypotheses) or semidefinite,
    }


# ---------------------------------------------------------------------------
# the conformal-factor identity
# ---------------------------------------------------------------------------

def theta_hat_identity(imm: GraphImmersion, k: int,
                       cfg: DiscretizationConfig = None,
                       geom: GeometryGrid = None) -> dict:
    """L_k of Theta^ = rho(h) Theta against its closed form.

    * gradient check: grad Theta^ = -rho(h) A grad h (differenced,
      first order in the stencil);
    * operator check: L_k Theta^ differenced against the
      constant-curvature closed form (convergent); the general-fiber
      form, with its curvature sum beta_k computed from the eigen frame,
      must agree with the constant-curvature form algebraically.
    """
    geom = _require_geom(imm, cfg, geom)
    mask = geom.interior
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    theta_hat = geom.rho * geom.theta

    grad_fd = geom.grad_frame(theta_hat)
    grad_closed = -geom.rho[..., None] * matvec(geom.shape_frame, geom.a)
    ggrid = grad_fd - grad_closed
    gradient_residual = IdentityResidual(ggrid, masked_max(ggrid, mask))

    P = geom.newton_tensor(k)
    ck = geom.c[k]
    bin_k1 = math.comb(n, k + 1)
    Hk, Hk1, Hk2 = geom.H[..., k], geom.H_safe(k + 1), geom.H_safe(k + 2)
    norm_grad_sq = 1.0 - geom.theta ** 2
    quad = _frame_quadratic(P, geom.a, geom.a)
    dHk1 = geom.grad_frame(geom.H_safe(k + 1))
    grad_pairing = dot(geom.a, dHk1)
    curvature_quad = norm_grad_sq * ck * Hk - quad
    trace_pa2 = bin_k1 * (n * geom.H[..., 1] * Hk1 - (n - k - 1) * Hk2)

    common = -bin_k1 * geom.rho * grad_pairing \
        - geom.drho * ck * Hk1 - theta_hat * trace_pa2
    rhs_const = common - theta_hat * (kappa / geom.rho ** 2 + geom.dhcal) \
        * curvature_quad

    # general-fiber route: beta_k from the eigen frame of the shape operator
    _, evecs = symfun.jacobi_eigh_batch(geom.shape_frame, True)
    Q_t = np.swapaxes(evecs, -1, -2)
    mu = dot(Q_t, np.swapaxes(matmul(P, evecs), -1, -2))   # diag(Q^T P Q)
    e = matvec(Q_t, geom.a)
    wedge_sq = norm_grad_sq[..., None] - e ** 2
    beta = kappa * dot(mu, wedge_sq)
    beta_algebraic = kappa * curvature_quad
    rhs_general = common - theta_hat * geom.dhcal * curvature_quad \
        - theta_hat / geom.rho ** 2 * beta

    lhs_fd = lk_apply(geom, k, theta_hat)
    ogrid = lhs_fd - rhs_const
    bgrid = beta - beta_algebraic
    agrid = rhs_general - rhs_const
    return {
        "gradient": gradient_residual,
        "operator": IdentityResidual(ogrid, masked_max(ogrid, mask)),
        "beta_routes": IdentityResidual(bgrid, masked_max(bgrid, mask)),
        "general_vs_constant": IdentityResidual(agrid,
                                                masked_max(agrid, mask)),
    }


# ---------------------------------------------------------------------------
# the combined function phi = H_k^{1/k} sigma(h) + Theta^
# ---------------------------------------------------------------------------

def frak_phi(imm: GraphImmersion, k: int, cfg: DiscretizationConfig = None,
             geom: GeometryGrid = None) -> dict:
    """div(P_{k-1} grad phi) against its four-term closed form.

    phi = H_k^{1/k} sigma(h) + rho(h) Theta; requires H_k > 0 on the
    audited nodes.  The minimum of each of the four displayed terms of the
    closed form is reported in ``term_minima``:

      T1 = c_{k-1} rho' H_k^{1/k} (H_{k-1} - H_k^{(k-1)/k})
      T2 = -C(n,k) Theta^ (n H_1 H_k - (n-k) H_{k+1} - k H_k^{(k+1)/k})
      T3 = -(n-k)   Theta^ (kappa/rho^2 + hcal') <P_{k-1} grad h, grad h>
      T4 = -(n-k+1) Theta^ H_k^{1/k} (kappa/rho^2 + hcal')
                                     <P_{k-2} grad h, grad h>

    (P_{-1} = 0 by convention, so T4 = 0 when k = 1.)  When H_k is not
    constant three extra gradient terms enter; they are returned as
    ``variable_correction`` and vanish identically in the constant-H_k
    setting the four-term form is stated for.
    """
    geom = _require_geom(imm, cfg, geom)
    _check_k(geom, k, lo=1, hi=geom.n)   # curvature order, not tensor index
    n = geom.n
    mask = _audited(geom)
    kappa = geom.imm.W.fiber.kappa
    Hk = geom.H[..., k]
    loc = _nonpositive_node(geom, Hk)
    if loc is not None:
        return {"applicable": False, "location": loc, "min_Hk": float(Hk[loc])}

    psi = np.maximum(Hk, 0.0) ** (1.0 / k)
    theta_hat = geom.rho * geom.theta
    phi = psi * geom.sigma + theta_hat

    lhs = frak_apply(geom, k - 1, phi)

    cm = geom.c[k - 1]
    bin_k = math.comb(n, k)
    curv = kappa / geom.rho ** 2 + geom.dhcal
    quad_km1 = _frame_quadratic(geom.newton_tensor(k - 1), geom.a, geom.a)
    if k >= 2:
        quad_km2 = _frame_quadratic(geom.newton_tensor(k - 2), geom.a, geom.a)
    else:
        quad_km2 = np.zeros(geom.u.shape)

    T1 = cm * geom.drho * (psi * geom.H[..., k - 1] - Hk)
    T2 = -bin_k * theta_hat * (n * geom.H[..., 1] * Hk
                               - (n - k) * geom.H_safe(k + 1) - k * psi * Hk)
    T3 = -(n - k) * theta_hat * curv * quad_km1
    T4 = -(n - k + 1) * theta_hat * psi * curv * quad_km2

    # corrections that vanish when H_k is constant
    grad_psi = geom.grad_frame(psi)
    grad_Hk = geom.grad_frame(Hk)
    pair_Hk = dot(geom.a, grad_Hk)
    lk_psi = lk_apply(geom, k - 1, psi)
    div_pairing = -(n - k + 1) * geom.theta * curv * (
        _frame_quadratic(geom.newton_tensor(k - 2), geom.a, grad_psi)
        if k >= 2 else np.zeros(geom.u.shape))
    frak_psi = div_pairing + lk_psi
    cross = 2.0 * geom.rho * _frame_quadratic(
        geom.newton_tensor(k - 1), grad_psi, geom.a)
    variable_correction = -bin_k * geom.rho * pair_Hk \
        + geom.sigma * frak_psi + cross

    rhs = T1 + T2 + T3 + T4 + variable_correction
    grid = lhs - rhs

    alpha = float(profile_summary(geom.imm.W)["alpha"])
    garding_margin = float(np.min((geom.H[..., k - 1] - psi ** (k - 1))[mask]))
    newton_min = _newton_min(geom, k)
    hypotheses = {
        "kappa_exceeds_alpha": kappa > alpha,
        "sampled_alpha": alpha,
        "theta_hat_nonpositive": float(np.max(theta_hat[mask])) <= 0.0,
        "rho_prime_min": float(np.min(geom.drho[mask])),
        "garding_margin": garding_margin,
        "newton_min_eigenvalue": newton_min,
    }
    terms = {"T1": T1, "T2": T2, "T3": T3, "T4": T4}
    term_mins = {name: float(np.min(t[mask])) for name, t in terms.items()}
    return {
        "applicable": True,
        "field": lhs,
        "term_minima": term_mins,
        "variable_correction": variable_correction,
        "residual": IdentityResidual(grid, masked_max(grid, mask)),
        "hypotheses": hypotheses,
        "all_terms_nonnegative": all(v >= -1e-10 for v in term_mins.values()),
    }


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

def convergence_study(imm: GraphImmersion, cfg: DiscretizationConfig,
                      residual_fn) -> dict:
    """Named residual maxima under dyadic refinement.

    ``residual_fn(geometry)`` returns a dict of named residual grids; each
    level's geometry is built once and handed to it.  Every grid is
    audited on the fixed physical window of the coarsest grid over
    ``cfg.refine_levels`` levels.  Returns one study per name: spacings,
    maxima, and the log-log slope (None when every level sits at rounding
    level).
    """
    trim = coarsest_trim(imm, cfg)
    hs, maxima = [], {}
    current = imm
    for level in range(cfg.refine_levels):
        if level:
            current = current.refined()
        geom = evaluate_geometry(current, cfg)
        window = audit_window(current, trim) & geom.interior
        for name, grid in residual_fn(geom).items():
            maxima.setdefault(name, []).append(
                masked_max(np.asarray(grid), window))
        hs.append(float(max(current.spacing)))
    return {name: {"spacings": list(hs), "maxima": ms,
                   "slope": fit_order(hs, ms)}
            for name, ms in maxima.items()}
