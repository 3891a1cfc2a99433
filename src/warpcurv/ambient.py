"""Geometry of the warped product I x_rho P^n.

Warping profiles with registered closed forms, constant-curvature fiber
charts, slice geometry, and the ambient curvature tensor.  The sign and
normalization conventions are pinned by the test suite:

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

from ._grid import golden_max


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------

@dataclass
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

    def sigma_fn(self, t):
        return self.sigma(np.asarray(t, dtype=float))


def _exp_profile(t_min=-3.0, t_max=3.0, t0=0.0):
    return WarpingProfile(
        name="exp", t_min=t_min, t_max=t_max, t0=t0,
        rho=np.exp, drho=np.exp, d2rho=np.exp,
        sigma=lambda t: np.exp(t) - math.exp(t0),
        alpha=0.0,
    )


def _cosh_profile(t_min=-3.0, t_max=3.0, t0=0.0):
    return WarpingProfile(
        name="cosh", t_min=t_min, t_max=t_max, t0=t0,
        rho=np.cosh, drho=np.sinh, d2rho=np.cosh,
        sigma=lambda t: np.sinh(t) - math.sinh(t0),
        alpha=-1.0,
    )


def _linear_profile(t_min=0.05, t_max=10.0, t0=1.0):
    if t_min <= 0.0:
        raise ValueError("the linear profile lives on (0, +oo)")
    return WarpingProfile(
        name="linear", t_min=t_min, t_max=t_max, t0=t0,
        rho=lambda t: np.asarray(t, dtype=float),
        drho=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        d2rho=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        sigma=lambda t: 0.5 * (np.asarray(t, dtype=float) ** 2 - t0 ** 2),
        alpha=1.0,
    )


def _sin_profile(eps=0.5, t_min=-2.0 * math.pi, t_max=2.0 * math.pi, t0=0.0):
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1 so the profile stays positive")
    return WarpingProfile(
        name="sin", t_min=t_min, t_max=t_max, t0=t0,
        rho=lambda t: 1.0 + eps * np.sin(t),
        drho=lambda t: eps * np.cos(t),
        d2rho=lambda t: -eps * np.sin(t),
        sigma=lambda t: (np.asarray(t, dtype=float) - eps * np.cos(t))
        - (t0 - eps * math.cos(t0)),
    )


def _const_profile(t_min=-3.0, t_max=3.0, t0=0.0):
    return WarpingProfile(
        name="const", t_min=t_min, t_max=t_max, t0=t0,
        rho=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        drho=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        d2rho=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        sigma=lambda t: np.asarray(t, dtype=float) - t0,
        alpha=0.0,
    )


PROFILES = {
    "exp": _exp_profile,
    "cosh": _cosh_profile,
    "linear": _linear_profile,
    "sin": _sin_profile,
    "const": _const_profile,
}


def builtin_profile(name: str, **params) -> WarpingProfile:
    try:
        factory = PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; registered profiles: {sorted(PROFILES)}")
    return factory(**params)


# ---------------------------------------------------------------------------
# fiber charts
# ---------------------------------------------------------------------------

_CHARTS = ("flat-torus", "round-sphere", "hyperbolic")


@dataclass
class FiberSpec:
    """A constant-curvature fiber with a closed-form chart.

    ``flat-torus`` is a periodic box of any dimension with kappa = 0;
    ``round-sphere`` (kappa > 0) and ``hyperbolic`` (kappa < 0) are
    two-dimensional polar-type charts whose metric, Christoffel symbols,
    distance functions, and distance Hessians are all closed forms.
    """

    n: int
    kappa: float
    chart: str
    lengths: tuple = None  # flat-torus box lengths

    def __post_init__(self):
        if self.chart not in _CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.chart == "flat-torus":
            if self.kappa != 0.0:
                raise ValueError("flat-torus chart requires kappa = 0")
            if self.lengths is None:
                self.lengths = (2.0 * math.pi,) * self.n
            if len(self.lengths) != self.n:
                raise ValueError("need one box length per fiber dimension")
            if not all(0.0 < L < math.inf for L in self.lengths):
                raise ValueError("box lengths must be positive and finite")
        elif self.chart == "round-sphere":
            if self.kappa <= 0.0:
                raise ValueError("round-sphere chart requires kappa > 0")
            if self.n != 2:
                raise ValueError("round-sphere chart is two-dimensional")
        else:
            if self.kappa >= 0.0:
                raise ValueError("hyperbolic chart requires kappa < 0")
            if self.n != 2:
                raise ValueError("hyperbolic chart is two-dimensional")

    # -- chart scale -------------------------------------------------------
    @property
    def scale(self):
        """Curvature scale s with kappa = +-1/s^2 (None for the flat chart)."""
        if self.kappa == 0.0:
            return None
        return 1.0 / math.sqrt(abs(self.kappa))

    @property
    def periodic(self):
        if self.chart == "flat-torus":
            return (True,) * self.n
        return (False, True)

    def default_box(self):
        if self.chart == "flat-torus":
            return [(0.0, L) for L in self.lengths]
        if self.chart == "round-sphere":
            return [(0.6, math.pi - 0.6), (0.0, 2.0 * math.pi)]
        return [(0.2, 2.2), (0.0, 2.0 * math.pi)]

    # -- metric data -------------------------------------------------------
    # The flat chart's constant fields are read-only views of one n x n
    # identity or one n^3 zero array, not copies at every point.
    def metric(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1]
        if self.chart == "flat-torus":
            return np.broadcast_to(np.eye(self.n), shape + (self.n, self.n))
        g = np.zeros(shape + (self.n, self.n))
        s = self.scale
        if self.chart == "round-sphere":
            g[..., 0, 0] = s * s
            g[..., 1, 1] = (s * np.sin(x[..., 0])) ** 2
        else:
            f = s * np.sinh(x[..., 0] / s)
            g[..., 0, 0] = 1.0
            g[..., 1, 1] = f * f
        return g

    def inverse_metric(self, x: np.ndarray) -> np.ndarray:
        g = self.metric(x)
        if self.chart == "flat-torus":
            return g
        inv = np.zeros_like(g)
        for i in range(self.n):
            inv[..., i, i] = 1.0 / g[..., i, i]
        return inv

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        """Closed-form symbols, indexed [..., k, i, j] for Gamma^k_{ij}."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] + (self.n,) * 3
        if self.chart == "flat-torus":
            return np.broadcast_to(np.zeros((self.n,) * 3), shape)
        gam = np.zeros(shape)
        if self.chart == "round-sphere":
            th = x[..., 0]
            gam[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
            cot = np.cos(th) / np.sin(th)
            gam[..., 1, 0, 1] = cot
            gam[..., 1, 1, 0] = cot
        else:
            s = self.scale
            r = x[..., 0]
            f = s * np.sinh(r / s)
            fp = np.cosh(r / s)
            gam[..., 0, 1, 1] = -f * fp
            gam[..., 1, 0, 1] = fp / f
            gam[..., 1, 1, 0] = fp / f
        return gam

    # -- distance machinery (for the extrinsic probe) ------------------------
    def distance(self, x: np.ndarray, origin) -> np.ndarray:
        return self.gamma_hat_data(x, origin)[0] ** 0.5

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

        s = self.scale
        if self.chart == "round-sphere":
            th, ph = x[..., 0], x[..., 1]
            th0, ph0 = origin
            C = np.cos(th) * math.cos(th0) + np.sin(th) * math.sin(th0) * np.cos(ph - ph0)
            C = np.clip(C, -1.0, 1.0)
            ang = np.arccos(C)          # geodesic angle; r = s * ang
            r = s * ang
            dC = np.stack([
                -np.sin(th) * math.cos(th0) + np.cos(th) * math.sin(th0) * np.cos(ph - ph0),
                -np.sin(th) * math.sin(th0) * np.sin(ph - ph0),
            ], axis=-1)
            # d gamma = 2 r dr, with dr = -s dC / sin(ang); the product is
            # regular at the origin: 2 r / sin(ang) -> 2 s.
            fac = np.where(ang > 1e-12, ang / np.where(ang > 1e-12, np.sin(ang), 1.0), 1.0)
            dgamma = -2.0 * s * s * fac[..., None] * dC
            cot_term = np.where(ang > 1e-12,
                                (1.0 / s) / np.tan(np.maximum(ang, 1e-12)), 0.0)
            window = (r >= 0.05 * s) & (ang <= 0.9 * math.pi)
        else:
            r1, t1 = x[..., 0], x[..., 1]
            r0, t0 = origin
            D = (np.cosh(r1 / s) * math.cosh(r0 / s)
                 - np.sinh(r1 / s) * math.sinh(r0 / s) * np.cos(t1 - t0))
            D = np.maximum(D, 1.0)
            ang = np.arccosh(D)         # d = s * ang
            r = s * ang
            dD = np.stack([
                (np.sinh(r1 / s) * math.cosh(r0 / s)
                 - np.cosh(r1 / s) * math.sinh(r0 / s) * np.cos(t1 - t0)) / s,
                np.sinh(r1 / s) * math.sinh(r0 / s) * np.sin(t1 - t0),
            ], axis=-1)
            fac = np.where(ang > 1e-12, ang / np.where(ang > 1e-12, np.sinh(ang), 1.0), 1.0)
            dgamma = 2.0 * s * s * fac[..., None] * dD
            cot_term = np.where(ang > 1e-12,
                                (1.0 / s) / np.tanh(np.maximum(ang, 1e-12)), 0.0)
            window = r >= 0.05 * s

        gamma = r * r
        ghat = self.metric(x)
        # dr x dr reconstructed from the safe gradient of gamma
        drdr = np.where(gamma[..., None, None] > 1e-24,
                        dgamma[..., :, None] * dgamma[..., None, :]
                        / np.where(gamma[..., None, None] > 1e-24,
                                   4.0 * gamma[..., None, None], 1.0),
                        0.0)
        hess = 2.0 * drdr + (2.0 * r * cot_term)[..., None, None] * (ghat - drdr)
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
    d2rho: np.ndarray
    hcal: np.ndarray
    dhcal: np.ndarray
    sigma: np.ndarray


def warping_eval(W: WarpedProduct, t) -> WarpingData:
    """Profile values (rho, rho', rho'', hcal, hcal', sigma) at t."""
    p = W.profile
    t = np.asarray(t, dtype=float)
    if np.any(t < p.t_min) or np.any(t > p.t_max):
        raise ValueError("t outside the profile interval")
    return WarpingData(
        rho=p.rho(t), drho=p.drho(t), d2rho=p.d2rho(t),
        hcal=p.hcal(t), dhcal=p.dhcal(t), sigma=p.sigma_fn(t),
    )


def _sign_verdict(values: np.ndarray) -> str:
    tol = 1e-12
    scale = max(1.0, float(np.max(np.abs(values))))
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo > tol * scale:
        return "positive"
    if lo >= -tol * scale:
        frac = float(np.mean(values > 1e-8))
        return "positive-ae" if frac >= 0.99 else "nonnegative"
    if hi < -tol * scale:
        return "negative"
    if hi <= tol * scale:
        return "nonpositive"
    return "sign-changing"


def profile_summary(W: WarpedProduct) -> dict:
    """Sampled sup of rho'^2 - rho''*rho, monotonicity of hcal, slab bounds.

    The sup is a maximum over 10000 samples refined by golden section
    around the discrete argmax; the sampling resolution is reported so
    callers can bound the gap to the analytic sup.
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
    dh = p.dhcal(ts)
    h = p.hcal(ts)
    return {
        "alpha_sampled": alpha_sampled,
        "alpha_argmax_t": t_star,
        "alpha_closed": p.alpha,
        "alpha": p.alpha if p.alpha is not None else alpha_sampled,
        "hcal_sign": _sign_verdict(h),
        "hcal_min": float(np.min(h)),
        "hcal_max": float(np.max(h)),
        "dhcal_sign": _sign_verdict(dh),
        "dhcal_min": float(np.min(dh)),
        "dhcal_positive_fraction": float(np.mean(dh > 1e-8)),
        "slab": (p.t_min, p.t_max),
        "samples": samples,
        "resolution": float(ts[1] - ts[0]),
    }


@dataclass(frozen=True)
class SliceGeometry:
    t: float
    theta: float
    hcal: float
    shape_operator: np.ndarray
    H: tuple
    grad_h: np.ndarray
    normal: np.ndarray


def slice_geometry(W: WarpedProduct, t: float) -> SliceGeometry:
    """Closed-form geometry of the slice {t} x P^n with N = -d/dt.

    The slice is totally umbilical: A = hcal(t) I and H_k = hcal(t)^k.
    """
    p = W.profile
    if not p.t_min <= t <= p.t_max:
        raise ValueError("t outside the profile interval")
    n = W.fiber.n
    h = float(p.hcal(t))
    normal = np.zeros(n + 1)
    normal[0] = -1.0
    return SliceGeometry(
        t=float(t), theta=-1.0, hcal=h,
        shape_operator=h * np.eye(n),
        H=tuple(h ** k for k in range(n + 1)),
        grad_h=np.zeros(n),
        normal=normal,
    )


def curvature_tensor_components(kappa, rho, hcal, dhcal, gfib, U, V, Wv):
    """Four-term warped curvature tensor, batched.

    ``U, V, Wv`` have shape (..., n+1): component 0 along T, fiber
    components measured against the fiber metric matrix ``gfib``
    (shape (..., n, n)).  The ambient inner product is
    ``<u, v> = u0 v0 + rho^2 * u_f . gfib . v_f``.
    """
    rho = np.asarray(rho, dtype=float)
    rho2 = rho * rho

    def amb(a, b):
        fib = np.einsum("...i,...ij,...j->...", a[..., 1:], gfib, b[..., 1:])
        return a[..., 0] * b[..., 0] + rho2 * fib

    def fib_inner(a, b):
        return np.einsum("...i,...ij,...j->...", a[..., 1:], gfib, b[..., 1:])

    uT, vT, wT = U[..., 0], V[..., 0], Wv[..., 0]
    out = np.zeros(np.broadcast(U, V, Wv).shape)

    # fiber curvature term: R_P(U*, V*)W* with the fiber metric
    coef_u = kappa * fib_inner(V, Wv)
    coef_v = kappa * fib_inner(U, Wv)
    out[..., 1:] += coef_u[..., None] * U[..., 1:] - coef_v[..., None] * V[..., 1:]

    # -H^2 (<V,W> U - <U,W> V)
    h2 = np.asarray(hcal, dtype=float) ** 2
    out -= h2[..., None] * (amb(V, Wv)[..., None] * U - amb(U, Wv)[..., None] * V)

    # +H' <W,T> (<U,T> V - <V,T> U)
    dh = np.asarray(dhcal, dtype=float)
    out += (dh * wT)[..., None] * (uT[..., None] * V - vT[..., None] * U)

    # -H' (<V,W><U,T> - <U,W><V,T>) T
    out[..., 0] -= dh * (amb(V, Wv) * uT - amb(U, Wv) * vT)
    return out


def ambient_curvature(W: WarpedProduct, p, U, V, Wv=None,
                      mode: str = "tensor"):
    """Curvature tensor R(U,V)W or sectional curvature K(U,V) at a point.

    ``p`` is the ambient point; only its I-coordinate matters (the fiber
    has constant curvature).  Vector components: index 0 along T, the
    rest in a fiber-orthonormal basis.  In sectional mode {U, V} must be
    orthonormal in the ambient metric.
    """
    t = float(np.asarray(p, dtype=float).reshape(-1)[0])
    data = warping_eval(W, t)
    n = W.fiber.n
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    gfib = np.eye(n)
    rho2 = float(data.rho) ** 2

    def amb(a, b):
        return a[0] * b[0] + rho2 * np.dot(a[1:], b[1:])

    if mode == "tensor":
        if Wv is None:
            raise ValueError("tensor mode needs the third vector")
        Wv = np.asarray(Wv, dtype=float)
        return curvature_tensor_components(
            W.fiber.kappa, data.rho, data.hcal, data.dhcal, gfib, U, V, Wv)
    if mode == "sectional":
        tol = 1e-8
        if (abs(amb(U, U) - 1.0) > tol or abs(amb(V, V) - 1.0) > tol
                or abs(amb(U, V)) > tol):
            raise ValueError("sectional mode needs an orthonormal pair")
        a, b = U[0], V[0]
        wedge = 1.0 - a * a - b * b
        return float(W.fiber.kappa / rho2 * wedge
                     - data.hcal ** 2 - data.dhcal * (a * a + b * b))
    raise ValueError(f"unknown mode {mode!r}")


def sectional_from_tensor(W: WarpedProduct, p, U, V) -> float:
    """<R(U,V)V, U> for cross-checking the sectional closed form."""
    t = float(np.asarray(p, dtype=float).reshape(-1)[0])
    data = warping_eval(W, t)
    rho2 = float(data.rho) ** 2
    R = ambient_curvature(W, p, U, V, V, mode="tensor")
    U = np.asarray(U, dtype=float)
    return float(R[0] * U[0] + rho2 * np.dot(R[1:], U[1:]))
