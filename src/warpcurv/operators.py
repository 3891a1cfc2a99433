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

import math
from dataclasses import dataclass

import numpy as np

from ._grid import diff, fit_order, masked_max
from .ambient import curvature_tensor_components, profile_summary
from .hypersurface import (DiscretizationConfig, GeometryGrid, GraphImmersion,
                           audit_window, coarsest_trim, evaluate_geometry)


class NotApplicableError(ValueError):
    """An operation's positivity precondition fails on this geometry."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


@dataclass
class IdentityResidual:
    """Residual grid of one curvature identity, with its audit summary."""

    id: str
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


def _trace_with(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Tr(P F) for symmetric frame matrices on the grid."""
    return np.einsum("...ij,...ji->...", P, F)


def _frame_quadratic(P: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", v, np.einsum("...ij,...j->...i", P, w))


# ---------------------------------------------------------------------------
# the basic operators
# ---------------------------------------------------------------------------

def lk_apply(geom: GeometryGrid, k: int, f: np.ndarray) -> np.ndarray:
    """L_k f = Tr(P_k Hess f), covariant Hessian by differencing."""
    _check_k(geom, k)
    Hf = geom.form_to_frame(geom.hess_covariant(np.asarray(f, dtype=float)))
    return _trace_with(geom.newton[..., k, :, :], Hf)


def laplace_beltrami(geom: GeometryGrid, f: np.ndarray) -> np.ndarray:
    """Independent divergence-form Laplacian: det^-1/2 d(det^1/2 g^ij d_j f).

    Kept deliberately separate from ``lk_apply`` so the k = 0 trace path
    has a non-circular cross-check.
    """
    return geom.divergence(geom.grad_chart(np.asarray(f, dtype=float)))


def frak_apply(geom: GeometryGrid, k: int, f: np.ndarray) -> np.ndarray:
    """Divergence-form operator div(P_k grad f), differenced."""
    _check_k(geom, k)
    P_chart = chart_mixed_newton(geom, k)
    Y = np.einsum("...ij,...j->...i", P_chart, geom.grad_chart(np.asarray(f, dtype=float)))
    return geom.divergence(Y)


def chart_mixed_newton(geom: GeometryGrid, k: int) -> np.ndarray:
    """P_k as a chart-mixed (1,1) tensor: L^-T P~_k L^T."""
    return (np.swapaxes(geom.L_inv, -1, -2) @ geom.newton[..., k, :, :]
            @ np.swapaxes(geom.L, -1, -2))


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


def normalized_lhat(geom: GeometryGrid, k: int, f: np.ndarray) -> np.ndarray:
    """Lhat_k f = L_k f / H_k on the audited nodes, NaN elsewhere.

    Requires H_k > 0 on the audited nodes and verifies Tr(P_k/H_k) = c_k
    there before returning.
    """
    _check_k(geom, k)
    mask = geom.interior
    if not mask.any():
        raise NotApplicableError("no audited node on this grid")
    Hk = geom.H[..., k]
    loc = _nonpositive_node(geom, Hk)
    if loc is not None:
        raise NotApplicableError(
            f"H_{k} is not positive on the audited nodes (min at {loc})",
            location=loc)
    trace = np.einsum("...ii->...", geom.newton[..., k, :, :][mask]) / Hk[mask]
    ck = geom.c[k]
    resid = float(np.max(np.abs(trace - ck))) / max(1.0, abs(ck))
    if not resid <= 1e-10:
        raise RuntimeError(f"normalized Newton trace off c_{k} by {resid:.3e}")
    out = np.full(Hk.shape, np.nan)
    out[mask] = lk_apply(geom, k, f)[mask] / Hk[mask]
    return out


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
    _check_k(geom, k)
    mask = geom.interior
    P = geom.newton[..., k, :, :]
    ck = geom.c[k]
    quad = _frame_quadratic(P, geom.a, geom.a)
    rhs_h = geom.hcal * (ck * geom.H[..., k] - quad) \
        + ck * geom.theta * geom.H_safe(k + 1)
    rhs_s = ck * geom.rho * (geom.hcal * geom.H[..., k]
                             + geom.theta * geom.H_safe(k + 1))

    lhs_h_fd = lk_apply(geom, k, geom.u)
    lhs_s_fd = lk_apply(geom, k, geom.sigma)
    lhs_h_alg = _trace_with(P, geom.height_hessian_frame())
    lhs_s_alg = _trace_with(P, geom.sigma_hessian_frame())

    out = {}
    for name, lhs, rhs in (
            ("height", lhs_h_fd, rhs_h),
            ("sigma", lhs_s_fd, rhs_s),
            ("height_algebraic", lhs_h_alg, rhs_h),
            ("sigma_algebraic", lhs_s_alg, rhs_s)):
        grid = lhs - rhs
        out[name] = IdentityResidual(id=f"lk-{name}", grid=grid,
                                     max=masked_max(grid, mask))
    return out


# ---------------------------------------------------------------------------
# divergence of the Newton tensors
# ---------------------------------------------------------------------------

def default_test_vectors(geom: GeometryGrid):
    """Deterministic tangent test vectors in frame components."""
    eye = np.eye(geom.n)
    return [np.broadcast_to(row, geom.a.shape) for row in eye] + [geom.a]


def _ambient_inner(geom: GeometryGrid, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    fib = np.einsum("...i,...i->...", U[..., 1:],
                    np.einsum("...ij,...j->...i", geom.ghat, V[..., 1:]))
    return U[..., 0] * V[..., 0] + geom.rho ** 2 * fib


def _frame_to_ambient(geom: GeometryGrid, w: np.ndarray) -> np.ndarray:
    return geom.ambient_components(geom.frame_vector_to_chart(w))


def div_pk(imm: GraphImmersion, k: int, cfg: DiscretizationConfig = None,
           geom: GeometryGrid = None) -> dict:
    """div P_k along three routes, paired against ``default_test_vectors``.

    (a) direct covariant differencing of the chart-mixed tensor;
    (b) the constant-curvature closed form
        -(n-k) Theta (kappa/rho^2 + hcal') P_{k-1} grad h;
    (c) the ambient-curvature sum
        <div P_k, X> = sum_{j<k} sum_i (-1)^{k-1-j}
                          <R(E_i, A^{k-1-j} X) N, P_j E_i>.

    (a)-(b) and (a)-(c) converge at the stencil order; (b)-(c) agree
    algebraically.
    """
    geom = _require_geom(imm, cfg, geom)
    _check_k(geom, k, lo=1)
    n = geom.n
    mask = geom.interior
    spacing = geom.spacing
    vecs = default_test_vectors(geom)

    # (a) direct: (div P)_j = d_m P^m_j + G^m_{mk} P^k_j - G^k_{mj} P^m_k
    P_chart = chart_mixed_newton(geom, k)
    dP = np.stack([diff(P_chart, ax, spacing[ax], geom.cfg.order)
                   for ax in range(n)], axis=-3)
    div_form = (np.einsum("...mmj->...j", dP)
                + np.einsum("...mmk,...kj->...j", geom.christoffel, P_chart)
                - np.einsum("...kmj,...mk->...j", geom.christoffel, P_chart))
    del P_chart, dP   # route (c) allocates next; keep the peak down

    kappa = geom.imm.W.fiber.kappa
    coef = geom.theta * (kappa / geom.rho ** 2 + geom.dhcal)
    Pkm1 = geom.newton[..., k - 1, :, :]

    # normal in ambient components, for the curvature route
    N_amb = geom.normal
    eye = np.eye(n)
    frame_amb = [
        _frame_to_ambient(geom, np.broadcast_to(eye[i], geom.a.shape))
        for i in range(n)]
    # P_j E_i in ambient components does not depend on the test vector
    P_amb = [[_frame_to_ambient(geom, geom.newton[..., j, :, i])
              for i in range(n)] for j in range(k)]

    applied_a, applied_b, applied_c = [], [], []
    for w in vecs:
        v_chart = geom.frame_vector_to_chart(w)
        applied_a.append(np.einsum("...j,...j->...", div_form, v_chart))
        applied_b.append(-(n - k) * coef * _frame_quadratic(Pkm1, geom.a, w))

        total = np.zeros(geom.u.shape)
        # y = A^{k-1-j} X built by repeated application
        powers = [w]
        for _ in range(k - 1):
            powers.append(np.einsum("...ij,...j->...i",
                                    geom.shape_frame, powers[-1]))
        for j in range(k):
            y = powers[k - 1 - j]
            Y_amb = _frame_to_ambient(geom, y)
            sign = (-1.0) ** (k - 1 - j)
            for i in range(n):
                R = curvature_tensor_components(
                    kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat,
                    frame_amb[i], Y_amb, N_amb)
                total += sign * _ambient_inner(geom, R, P_amb[j][i])
        applied_c.append(total)

    a = np.stack(applied_a, axis=-1)
    b = np.stack(applied_b, axis=-1)
    c = np.stack(applied_c, axis=-1)
    return {
        "residual_ab": IdentityResidual("div-pk-numeric-vs-closed", a - b,
                                        masked_max(a - b, mask)),
        "residual_ac": IdentityResidual("div-pk-numeric-vs-curvature", a - c,
                                        masked_max(a - c, mask)),
        "residual_bc": IdentityResidual("div-pk-closed-vs-curvature", b - c,
                                        masked_max(b - c, mask)),
    }


def curvature_trace_identity(geom: GeometryGrid, j: int,
                             w: np.ndarray) -> IdentityResidual:
    """Residual of sum_i <R(E_i, Y)N, P_j E_i>
    = Theta (kappa/rho^2 + hcal') (<P_j grad h, Y> - c_j H_j <grad h, Y>),
    with Y given in frame components (pure algebra; rounding level)."""
    _check_k(geom, j)
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    Y_amb = _frame_to_ambient(geom, w)
    Pj = geom.newton[..., j, :, :]
    eye = np.eye(n)
    total = np.zeros(geom.u.shape)
    for i in range(n):
        E_amb = _frame_to_ambient(geom, np.broadcast_to(eye[i], geom.a.shape))
        R = curvature_tensor_components(
            kappa, geom.rho, geom.hcal, geom.dhcal, geom.ghat,
            E_amb, Y_amb, geom.normal)
        total += _ambient_inner(geom, R, _frame_to_ambient(geom, Pj[..., :, i]))
    coef = geom.theta * (kappa / geom.rho ** 2 + geom.dhcal)
    rhs = coef * (_frame_quadratic(Pj, geom.a, w)
                  - geom.c[j] * geom.H[..., j]
                  * np.einsum("...i,...i->...", geom.a, w))
    grid = total - rhs
    return IdentityResidual("curvature-trace", grid,
                            masked_max(grid, geom.interior))


# ---------------------------------------------------------------------------
# the calligraphic family
# ---------------------------------------------------------------------------

def calligraphic_family(A: np.ndarray, hcal: float, theta: float) -> list:
    """The matrices sum_{j<=m} (-1)^j (c_m/c_j) hcal^{m-j} theta^j P_j
    for m = 0..n-1, from a single symmetric matrix (pure algebra)."""
    from . import symfun

    fam = symfun.newton_family(A)
    n = fam.n
    c = [symfun.trace_coefficient(n, j) for j in range(n)]
    out = []
    for m in range(n):
        M = np.zeros((n, n))
        for j in range(m + 1):
            M += ((-1.0) ** j * (c[m] / c[j])
                  * hcal ** (m - j) * theta ** j * fam.P[j])
        out.append(M)
    return out


def _calligraphic_grid(geom: GeometryGrid, k: int) -> np.ndarray:
    """The degree-(k-1) calligraphic tensor on the grid (frame)."""
    n = geom.n
    m = k - 1
    cm = geom.c[m]
    out = np.zeros(geom.shape_frame.shape)
    for j in range(m + 1):
        coef = ((-1.0) ** j * (cm / geom.c[j])
                * geom.hcal ** (m - j) * geom.theta ** j)
        out += coef[..., None, None] * geom.newton[..., j, :, :]
    return out


def calligraphic_ops(imm: GraphImmersion, k: int,
                     cfg: DiscretizationConfig = None,
                     geom: GeometryGrid = None) -> dict:
    """The hcal/Theta-weighted Newton combination of degree k-1.

    Verifies Tr(Pcal_{k-1} Hess sigma(h))
    = c_{k-1} rho (hcal^k + (-1)^{k-1} Theta^k H_k) along the algebraic
    route (rounding level) and the differenced route (convergent), and
    reports eigenvalue-based semidefiniteness together with the sign
    hypotheses that would force it.
    """
    geom = _require_geom(imm, cfg, geom)
    if not 2 <= k <= geom.n:
        raise ValueError(f"calligraphic index k={k} outside [2, {geom.n}]")
    mask = geom.interior
    Pcal = _calligraphic_grid(geom, k)
    cm = geom.c[k - 1]
    rhs = cm * geom.rho * (geom.hcal ** k
                           + (-1.0) ** (k - 1) * geom.theta ** k * geom.H[..., k])

    lhs_alg = _trace_with(Pcal, geom.sigma_hessian_frame())
    Hs = geom.form_to_frame(geom.hess_covariant(geom.sigma))
    lhs_fd = _trace_with(Pcal, Hs)

    eigs = np.linalg.eigvalsh(Pcal)
    min_eig = float(np.min(eigs[mask]))
    theta_max = float(np.max(geom.theta[mask]))
    hcal_min = float(np.min(geom.hcal[mask]))
    newton_min = float(np.min(
        np.linalg.eigvalsh(geom.newton[..., :k, :, :])[mask]))
    hypotheses = (theta_max <= 0.0 and hcal_min >= 0.0 and newton_min > 0.0)

    grid_alg = lhs_alg - rhs
    grid_fd = lhs_fd - rhs
    semidefinite = min_eig >= -1e-10
    return {
        "sigma_identity_algebraic": IdentityResidual(
            "calligraphic-sigma-algebraic", grid_alg, masked_max(grid_alg, mask)),
        "sigma_identity": IdentityResidual(
            "calligraphic-sigma", grid_fd, masked_max(grid_fd, mask)),
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
    _check_k(geom, k)
    mask = geom.interior
    n = geom.n
    kappa = geom.imm.W.fiber.kappa
    theta_hat = geom.rho * geom.theta

    grad_fd = geom.grad_frame(theta_hat)
    grad_closed = -geom.rho[..., None] * np.einsum(
        "...ij,...j->...i", geom.shape_frame, geom.a)
    ggrid = grad_fd - grad_closed
    gradient_residual = IdentityResidual("theta-hat-gradient", ggrid,
                                         masked_max(ggrid, mask))

    P = geom.newton[..., k, :, :]
    ck = geom.c[k]
    bin_k1 = math.comb(n, k + 1)
    Hk, Hk1, Hk2 = geom.H[..., k], geom.H_safe(k + 1), geom.H_safe(k + 2)
    norm_grad_sq = 1.0 - geom.theta ** 2
    quad = _frame_quadratic(P, geom.a, geom.a)
    dHk1 = geom.grad_frame(geom.H_safe(k + 1))
    grad_pairing = np.einsum("...i,...i->...", geom.a, dHk1)
    curvature_quad = norm_grad_sq * ck * Hk - quad
    trace_pa2 = bin_k1 * (n * geom.H[..., 1] * Hk1 - (n - k - 1) * Hk2)

    common = -bin_k1 * geom.rho * grad_pairing \
        - geom.drho * ck * Hk1 - theta_hat * trace_pa2
    rhs_const = common - theta_hat * (kappa / geom.rho ** 2 + geom.dhcal) \
        * curvature_quad

    # general-fiber route: beta_k from the eigen frame of the shape operator
    evals, evecs = np.linalg.eigh(geom.shape_frame)
    mu = np.einsum("...ji,...ji->...i", evecs, P @ evecs)
    e = np.einsum("...ji,...j->...i", evecs, geom.a)
    wedge_sq = norm_grad_sq[..., None] - e ** 2
    beta = kappa * np.einsum("...i,...i->...", mu, wedge_sq)
    beta_algebraic = kappa * curvature_quad
    rhs_general = common - theta_hat * geom.dhcal * curvature_quad \
        - theta_hat / geom.rho ** 2 * beta

    lhs_fd = lk_apply(geom, k, theta_hat)
    ogrid = lhs_fd - rhs_const
    bgrid = beta - beta_algebraic
    agrid = rhs_general - rhs_const
    return {
        "gradient": gradient_residual,
        "operator": IdentityResidual("theta-hat-operator", ogrid,
                                     masked_max(ogrid, mask)),
        "beta_routes": IdentityResidual("theta-hat-beta-routes", bgrid,
                                        masked_max(bgrid, mask)),
        "general_vs_constant": IdentityResidual(
            "theta-hat-general-vs-constant", agrid, masked_max(agrid, mask)),
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
    mask = geom.interior
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
    quad_km1 = _frame_quadratic(geom.newton[..., k - 1, :, :], geom.a, geom.a)
    if k >= 2:
        quad_km2 = _frame_quadratic(geom.newton[..., k - 2, :, :], geom.a, geom.a)
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
    pair_Hk = np.einsum("...i,...i->...", geom.a, grad_Hk)
    lk_psi = lk_apply(geom, k - 1, psi)
    div_pairing = -(n - k + 1) * geom.theta * curv * (
        _frame_quadratic(geom.newton[..., k - 2, :, :], geom.a, grad_psi)
        if k >= 2 else np.zeros(geom.u.shape))
    frak_psi = div_pairing + lk_psi
    cross = 2.0 * geom.rho * _frame_quadratic(
        geom.newton[..., k - 1, :, :], grad_psi, geom.a)
    variable_correction = -bin_k * geom.rho * pair_Hk \
        + geom.sigma * frak_psi + cross

    rhs = T1 + T2 + T3 + T4 + variable_correction
    grid = lhs - rhs

    alpha = float(profile_summary(geom.imm.W)["alpha"])
    garding_margin = float(np.min((geom.H[..., k - 1] - psi ** (k - 1))[mask]))
    newton_min = float(np.min(
        np.linalg.eigvalsh(geom.newton[..., :k, :, :])[mask]))
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
        "residual": IdentityResidual("frak-phi", grid, masked_max(grid, mask)),
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
            resid = np.abs(np.asarray(grid))
            while resid.ndim > window.ndim:
                resid = np.max(resid, axis=-1)
            maxima.setdefault(name, []).append(float(np.max(resid[window])))
        hs.append(float(max(current.spacing)))
    return {name: {"spacings": list(hs), "maxima": ms,
                   "slope": fit_order(hs, ms)}
            for name, ms in maxima.items()}
