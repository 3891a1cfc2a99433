"""Geometry of the warped product I x_rho P^n.

Warping profiles with registered closed forms, two fiber charts (the flat
torus and the conformally flat chart of every space form) and the ambient
curvature tensor.  The sign and normalization conventions are pinned by
the test suite:

* metric ``dt^2 + rho(t)^2 <,>_P``;
* slices are totally umbilical with shape operator ``H(t) I`` and angle
  ``Theta = -1`` with respect to the normal ``N = -d/dt``, where
  ``H = rho'/rho``;
* the curvature tensor is assembled from the fiber tensor plus warping
  terms, and for orthonormal pairs the sectional curvature reads
  ``K = (kappa/rho^2) |U* ^ V*|^2 - H^2 - H' (<U,T>^2 + <V,T>^2)`` with
  ``|U* ^ V*|^2 = 1 - <U,T>^2 - <V,T>^2``.

Vectors handed to the curvature routines live in the product frame: the
component 0 is the coefficient along ``T = d/dt`` and the remaining n
components are fiber components in a basis whose fiber metric matrix is
supplied (the identity for an orthonormal fiber basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grid import components, golden_max, node_major
from .symfun import MAX_DIM


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpingProfile:
    """A warping function with supplied derivatives on an interval.

    Derivatives are registered, never differenced: identity audits must
    not be polluted by profile-differencing error.  ``sigma`` is the
    closed-form primitive of rho based at ``t0``; it is required for the
    same reason.  ``alpha`` optionally records the analytic sup of
    rho'^2 - rho'' rho.
    """

    name: str
    t_min: float
    t_max: float
    rho: callable
    drho: callable
    d2rho: callable
    sigma: callable
    t0: float = 0.0
    alpha: float = None

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("empty profile interval")
        if not self.t_min <= self.t0 <= self.t_max:
            raise ValueError("base point t0 outside the interval")
        ts = np.linspace(self.t_min, self.t_max, 512)
        if np.min(self.rho(ts)) <= 0.0:
            raise ValueError("warping function must be positive on the interval")

    def hcal(self, t):
        """The slice curvature function rho'/rho."""
        t = np.asarray(t, dtype=float)
        return self.drho(t) / self.rho(t)

    def dhcal(self, t):
        """Derivative of hcal: rho''/rho - (rho'/rho)^2."""
        t = np.asarray(t, dtype=float)
        h = self.hcal(t)
        return self.d2rho(t) / self.rho(t) - h * h


def _ones(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _zeros(t):
    return np.zeros_like(np.asarray(t, dtype=float))


# each registered profile on its fixed interval; sigma is based at t0
PROFILES = {
    "exp": WarpingProfile(
        name="exp", t_min=-3.0, t_max=3.0,
        rho=np.exp, drho=np.exp, d2rho=np.exp,
        sigma=lambda t: np.exp(t) - 1.0, alpha=0.0),
    "cosh": WarpingProfile(
        name="cosh", t_min=-3.0, t_max=3.0,
        rho=np.cosh, drho=np.sinh, d2rho=np.cosh, sigma=np.sinh, alpha=-1.0),
    "linear": WarpingProfile(
        name="linear", t_min=0.05, t_max=10.0, t0=1.0,
        rho=lambda t: np.asarray(t, dtype=float), drho=_ones, d2rho=_zeros,
        sigma=lambda t: 0.5 * (np.asarray(t, dtype=float) ** 2 - 1.0),
        alpha=1.0),
    "sin": WarpingProfile(
        name="sin", t_min=-2.0 * math.pi, t_max=2.0 * math.pi,
        rho=lambda t: 1.0 + 0.5 * np.sin(t),
        drho=lambda t: 0.5 * np.cos(t),
        d2rho=lambda t: -0.5 * np.sin(t),
        sigma=lambda t: (np.asarray(t, dtype=float) - 0.5 * np.cos(t)) + 0.5),
    "const": WarpingProfile(
        name="const", t_min=-3.0, t_max=3.0,
        rho=_ones, drho=_zeros, d2rho=_zeros,
        # the product makes a new array, or a scalar for a scalar t
        sigma=lambda t: 1.0 * np.asarray(t, dtype=float), alpha=0.0),
}


def builtin_profile(name: str) -> WarpingProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; registered profiles: {sorted(PROFILES)}")


# ---------------------------------------------------------------------------
# fiber charts
# ---------------------------------------------------------------------------

_CHARTS = ("flat-torus", "space-form")


@dataclass
class FiberSpec:
    """A constant-curvature fiber of dimension 1 <= n <= ``MAX_DIM`` with a
    closed-form chart.

    ``flat-torus`` is a periodic box with kappa = 0.  ``space-form`` is the
    conformally flat chart of the round sphere (kappa > 0, stereographic,
    minus one point) or of hyperbolic space (kappa < 0, the Poincare ball
    |x| sqrt(-kappa) < 1): metric ``lambda^2 delta`` with
    ``lambda = 2 / (1 + kappa |x|^2)``.  Its boxes are in these conformal
    coordinates, and none of its axes is periodic.
    """

    n: int
    kappa: float
    chart: str
    lengths: tuple = None  # flat-torus box lengths

    def __post_init__(self):
        if self.chart in ("round-sphere", "hyperbolic"):
            raise ValueError(
                f"chart {self.chart!r} is gone: use 'space-form', whose box "
                f"is in conformal, not polar, coordinates")
        if self.chart not in _CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}; registry: "
                             f"{', '.join(_CHARTS)}")
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(
                f"fiber dimension n={self.n} outside [1, {MAX_DIM}]")
        if self.chart == "space-form":
            if self.kappa == 0.0:
                raise ValueError("space-form chart requires kappa != 0; "
                                 "the flat fiber is the flat-torus chart")
            if self.lengths is not None:
                raise ValueError("space-form chart takes no box lengths")
            return
        if self.kappa != 0.0:
            raise ValueError("flat-torus chart requires kappa = 0")
        if self.lengths is None:
            self.lengths = (2.0 * math.pi,) * self.n
        if len(self.lengths) != self.n:
            raise ValueError("need one box length per fiber dimension")
        if not all(0.0 < L < math.inf for L in self.lengths):
            raise ValueError("box lengths must be positive and finite")

    @property
    def periodic(self):
        return (self.chart == "flat-torus",) * self.n

    def default_box(self):
        if self.chart == "flat-torus":
            return [(0.0, L) for L in self.lengths]
        # corners at |x| sqrt|kappa| = 0.6, well inside the Poincare ball
        half = 0.6 / math.sqrt(self.n * abs(self.kappa))
        return [(-half, half)] * self.n

    def check_points(self, x, what: str) -> None:
        """Refuse chart points on or outside the Poincare ball's boundary,
        where the hyperbolic chart's metric blows up."""
        if self.kappa < 0.0:
            reach = math.sqrt(-self.kappa) * float(
                np.max(np.linalg.norm(np.asarray(x, dtype=float), axis=-1)))
            if not reach < 1.0:
                raise ValueError(
                    f"{what} reaches |x| sqrt(-kappa) = {reach:.4g} >= 1, "
                    f"outside the Poincare ball of the space-form chart")

    # -- metric data -------------------------------------------------------
    # The flat chart's constant fields are read-only views of one n x n
    # identity or one n^3 zero array, not copies at every point.  The
    # space-form fields are node-major views of component-major buffers,
    # as the geometry's tensor fields are.
    def _conformal_factor(self, x):
        return 2.0 / (1.0 + self.kappa * np.sum(x * x, axis=-1))

    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eye = np.eye(self.n)
        if self.chart == "flat-torus":
            return np.broadcast_to(eye, x.shape[:-1] + eye.shape)
        lam_sq = self._conformal_factor(x) ** 2
        return node_major(np.multiply.outer(eye, lam_sq), 2)

    def inverse_metric(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart == "flat-torus":
            return self.metric(x)
        lam_inv_sq = self._conformal_factor(x) ** -2
        return node_major(np.multiply.outer(np.eye(self.n), lam_inv_sq), 2)

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Closed-form symbols, indexed [..., k, i, j] for Gamma^k_{ij}:
        ``delta^k_i d_j + delta^k_j d_i - delta_ij d_k`` with
        ``d = grad log lambda = -kappa lambda x``."""
        x = np.asarray(x, dtype=float)
        if self.chart == "flat-torus":
            return np.broadcast_to(np.zeros((self.n,) * 3),
                                   x.shape[:-1] + (self.n,) * 3)
        eye = np.eye(self.n).reshape((self.n, self.n) + (1,) * (x.ndim - 1))
        d = components(-self.kappa * self._conformal_factor(x)[..., None] * x)
        return node_major(eye[:, :, None] * d[None, None]
                          + eye[:, None, :] * d[None, :, None]
                          - eye * d[:, None, None], 3)

    # -- distance machinery (for the extrinsic probe) ------------------------
    def gamma_hat_data(self, x: np.ndarray, origin):
        """Squared distance to ``origin`` with gradient and fiber Hessian.

        Returns ``(gamma, dgamma, hess_gamma, window)`` where ``dgamma``
        holds chart partials, ``hess_gamma`` is the covariant fiber
        Hessian of gamma (closed form), and ``window`` masks out the
        neighborhood of the origin and of the cut locus, inside which
        the closed forms are reliable.
        """
        x = np.asarray(x, dtype=float)
        origin = np.asarray(origin, dtype=float)
        if self.chart == "flat-torus":
            L = np.asarray(self.lengths)
            d = x - origin
            d = (d + 0.5 * L) % L - 0.5 * L
            gamma = np.sum(d * d, axis=-1)
            dgamma = 2.0 * d
            hess = np.zeros(gamma.shape + (self.n, self.n))
            for i in range(self.n):
                hess[..., i, i] = 2.0
            window = gamma ** 0.5 <= 0.75 * (0.5 * float(np.min(L)))
            return gamma, dgamma, hess, window

        self.check_points(origin, "gamma-probe origin")
        # with q = 2 |x - o|^2 / ((1 + kappa |x|^2)(1 + kappa |o|^2)) the
        # distance d has cos(sqrt(kappa) d) = 1 - kappa q, or cosh for
        # kappa < 0; in the angle a = sqrt|kappa| d that is
        # sn(a / 2)^2 = |kappa| q / 2 with sn = sin or sinh
        kappa = self.kappa
        diff = x - origin
        D = np.sum(diff * diff, axis=-1)
        A = 1.0 + kappa * np.sum(x * x, axis=-1)
        B = 1.0 + kappa * float(origin @ origin)
        q = 2.0 * D / (A * B)
        half = np.sqrt(0.5 * abs(kappa) * q)
        if kappa > 0.0:
            ang = 2.0 * np.arcsin(np.minimum(half, 1.0))
            sn, cs = np.sin(ang), np.cos(ang)
        else:
            ang = 2.0 * np.arcsinh(half)
            sn, cs = np.sinh(ang), np.cosh(ang)
        gamma = ang * ang / abs(kappa)
        # da = |kappa| dq / sn(a), so dr = da / sqrt|kappa| and
        # d gamma = 2 r dr = 2 (a / sn a) dq, regular at the origin
        small = ang <= 1e-12
        sn = np.where(small, 1.0, sn)
        ratio = np.where(small, 1.0, ang / sn)
        dq = (4.0 / (A * B))[..., None] * (
            diff - (kappa * D / A)[..., None] * x)
        dgamma = 2.0 * ratio[..., None] * dq
        dr = np.where(small[..., None], 0.0,
                      math.sqrt(abs(kappa)) * dq / sn[..., None])
        # Hess gamma = 2 dr dr + 2 r ct(r) (ghat - dr dr), where
        # r ct(r) = a cs(a) / sn(a) -> 1 at the origin
        drdr = dr[..., :, None] * dr[..., None, :]
        hess = 2.0 * drdr + (2.0 * ratio * cs)[..., None, None] * (
            self.metric(x) - drdr)
        window = (ang >= 0.05) & ((kappa < 0.0) | (ang <= 0.9 * math.pi))
        return gamma, dgamma, hess, window


@dataclass
class WarpedProduct:
    """The ambient space I x_rho P^n."""

    profile: WarpingProfile
    fiber: FiberSpec


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpingData:
    rho: np.ndarray
    drho: np.ndarray
    hcal: np.ndarray
    dhcal: np.ndarray
    sigma: np.ndarray


def warping_eval(W: WarpedProduct, t) -> WarpingData:
    """Profile values (rho, rho', hcal, hcal', sigma) at t."""
    p = W.profile
    t = np.asarray(t, dtype=float)
    if np.any(t < p.t_min) or np.any(t > p.t_max):
        raise ValueError("t outside the profile interval")
    return WarpingData(
        rho=p.rho(t), drho=p.drho(t),
        hcal=p.hcal(t), dhcal=p.dhcal(t), sigma=p.sigma(t),
    )


def profile_summary(W: WarpedProduct) -> dict:
    """The sup alpha of rho'^2 - rho''*rho over the profile's range.

    Returns ``alpha_sampled`` (the maximum over 10000 samples, refined by
    golden section around the discrete argmax), ``alpha_closed`` (the
    profile's closed form, None when it has none), ``alpha`` (the closed
    form when there is one, else the sampled sup).
    """
    samples = 10000
    p = W.profile
    ts = np.linspace(p.t_min, p.t_max, samples)

    def q(t):
        t = np.asarray(t, dtype=float)
        return p.drho(t) ** 2 - p.d2rho(t) * p.rho(t)

    qs = q(ts)
    i = int(np.argmax(qs))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, samples - 1)]
    t_star = golden_max(lambda t: float(q(t)), float(lo), float(hi))
    q_star = float(q(t_star))
    alpha_sampled = max(float(np.max(qs)), q_star)
    return {
        "alpha_sampled": alpha_sampled,
        "alpha_closed": p.alpha,
        "alpha": p.alpha if p.alpha is not None else alpha_sampled,
    }


def curvature_tensor_components(kappa, rho, hcal, dhcal, gfib, U, V, Wv):
    """Four-term warped curvature tensor, batched.

    ``U, V, Wv`` have shape (..., n+1): component 0 along T, fiber
    components measured against the fiber metric matrix ``gfib``
    (shape (..., n, n)).  The ambient inner product is
    ``<u, v> = u0 v0 + rho^2 * u_f . gfib . v_f``.

    The work runs component-major: the vector axis is moved first and
    made contiguous, so that every product below spans the whole grid
    rather than n+1 components.  The result is a (..., n+1) view of it.
    """
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho
    U, V, Wv = (np.ascontiguousarray(np.moveaxis(X, -1, 0))
                for X in np.broadcast_arrays(U, V, Wv))
    G = np.moveaxis(gfib, (-2, -1), (0, 1))
    n = G.shape[0]

    # fiber products sum_j (sum_i X_i G_ij) W_j, one grid per term
    uT, vT, wT = U[0], V[0], Wv[0]
    fib_vw = fib_uw = 0.0
    for j in range(n):
        vg = sum(V[1 + i] * G[i, j] for i in range(n))
        ug = sum(U[1 + i] * G[i, j] for i in range(n))
        fib_vw = fib_vw + vg * Wv[1 + j]
        fib_uw = fib_uw + ug * Wv[1 + j]
    vw = vT * wT + rho2 * fib_vw
    uw = uT * wT + rho2 * fib_uw
    out = np.zeros(U.shape)

    # fiber curvature term: R_P(U*, V*)W* with the fiber metric
    out[1:] += kappa * (fib_vw * U[1:] - fib_uw * V[1:])

    # -H^2 (<V,W> U - <U,W> V)
    h2 = np.asarray(hcal, dtype=float) ** 2
    out -= h2 * (vw * U - uw * V)

    # +H' <W,T> (<U,T> V - <V,T> U)
    dh = np.asarray(dhcal, dtype=float)
    out += (dh * wT) * (uT * V - vT * U)

    # -H' (<V,W><U,T> - <U,W><V,T>) T
    out[0] -= dh * (vw * uT - uw * vT)
    return np.moveaxis(out, 0, -1)

