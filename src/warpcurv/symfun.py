"""Elementary symmetric functions, k-mean curvatures, and Newton tensors.

Pure linear/multilinear algebra on principal curvatures and symmetric
matrices, independent of any ambient geometry.  Conventions:

* ``S_k`` is the k-th elementary symmetric function of the eigenvalues,
  ``S_0 = 1``.
* ``H_k = S_k / binomial(n, k)`` is the normalized k-mean curvature.
* Newton tensors follow the recursion ``P_0 = I``,
  ``P_k = S_k I - A P_{k-1}``, so that ``Tr P_k = (n-k) S_k`` and
  ``Tr(A P_k) = (k+1) S_{k+1}``.
* ``c_k = (n-k) binomial(n, k) = (k+1) binomial(n, k+1)``.

Dimension is capped at 8: every claim checked here has a brute-force
oracle, and exhaustive enumeration must stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 8

_SYM_TOL = 1e-10


def trace_coefficient(n: int, k: int) -> int:
    """The constant c_k = (n-k)*binomial(n,k)."""
    return (n - k) * math.comb(n, k)


# ---------------------------------------------------------------------------
# eigen solver
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations.

    This is the claim-bearing eigensolver for the desk-scale algebra
    (n <= 8); it is cross-checked against ``numpy.linalg.eigh`` in the
    test suite.  Sweeps stop once the off-diagonal Frobenius norm is at
    most 1e-13 relative to the matrix scale (or after 60 sweeps).
    Eigenvalues are returned in ascending order.

    Each rotation ``B <- R^T B R`` touches only rows and columns p, q, so
    it is applied to those entries alone (rows first, then columns), on
    the matrix held as Python floats: at n <= 8 the cost of a numpy call
    exceeds the arithmetic it performs.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    n = A.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds the desk-scale cap {MAX_DIM}")
    peak = float(np.max(np.abs(A)))
    if not math.isfinite(peak):
        raise ValueError("matrix has a non-finite entry")
    B = A.tolist()
    scale = max(1.0, peak)
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    lower = [(i, j) for i in range(1, n) for j in range(i)]
    for _ in range(60):
        off = math.hypot(*[B[i][j] for i, j in lower])
        if off <= 1e-13 * scale:
            break
        for p, q in pairs:
            row_p, row_q = B[p], B[q]
            apq = row_p[q]
            if abs(apq) <= 1e-300:
                continue
            # classical 2x2 rotation annihilating B[p, q]
            theta = (row_q[q] - row_p[p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            for j in range(n):
                x, y = row_p[j], row_q[j]
                row_p[j] = c * x - s * y
                row_q[j] = s * x + c * y
            for row in B:
                x, y = row[p], row[q]
                row[p] = c * x - s * y
                row[q] = s * x + c * y
    return np.sort(np.array([B[i][i] for i in range(n)]), kind="stable")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricPack:
    """S_0..S_n, H_0..H_n and the trace constants c_0..c_{n-1}."""

    S: tuple
    H: tuple
    c: tuple

    @property
    def n(self) -> int:
        return len(self.S) - 1


@dataclass
class NewtonFamily:
    """The Newton tensors P_0..P_{n-1} generated by a symmetric matrix."""

    P: list
    A: np.ndarray
    pack: SymmetricPack = field(repr=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def elementary_symmetric(kappas) -> SymmetricPack:
    """Elementary symmetric functions via the product-polynomial recurrence.

    Builds the coefficients of prod_i (1 + kappa_i t) with the stable
    descending-index update; subset enumeration is retained as a test
    oracle only.
    """
    ks = [float(k) for k in kappas]
    n = len(ks)
    if n == 0:
        raise ValueError("empty curvature list")
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")
    if not all(math.isfinite(k) for k in ks):
        raise ValueError("non-finite principal curvature")
    S = [0.0] * (n + 1)
    S[0] = 1.0
    for i, kap in enumerate(ks):
        for j in range(i + 1, 0, -1):
            S[j] += kap * S[j - 1]
    H = tuple(S[k] / math.comb(n, k) for k in range(n + 1))
    c = tuple(trace_coefficient(n, k) for k in range(n))
    return SymmetricPack(S=tuple(S), H=H, c=c)


def _symmetrized(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (A + A.T)
        asym = float(np.max(np.abs(A - A.T)))
    # a non-finite entry of A leaves one in sym
    if not np.isfinite(sym).all():
        raise ValueError("matrix is not finite, or overflows when symmetrized")
    if asym > _SYM_TOL * max(1.0, float(np.max(np.abs(A)))):
        raise ValueError("matrix is not symmetric within tolerance")
    return sym


def newton_family(A: np.ndarray) -> NewtonFamily:
    """Newton tensors P_0..P_{n-1} of a symmetric matrix.

    In any eigenbasis of ``A`` the tensor ``P_k`` is diagonal, with the
    eigenvalue at kappa_i equal to S_k of the remaining eigenvalues.
    """
    A = _symmetrized(A)
    n = A.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")
    pack = elementary_symmetric(jacobi_eigenvalues(A))
    P = [np.eye(n)]
    for k in range(1, n):
        P.append(pack.S[k] * np.eye(n) - A @ P[k - 1])
    return NewtonFamily(P=P, A=A, pack=pack)


def trace_and_norm_identities(A: np.ndarray) -> dict:
    """Residuals of the trace identities and of |A|^2 = n^2 H_1^2 - n(n-1) H_2.

    Every residual must sit below 1e-10 times the reported scale, and
    both must be finite: a NaN residual or an overflowed scale fails.
    """
    fam = newton_family(A)
    n = fam.n
    S, H = fam.pack.S, fam.pack.H
    trace_p = [abs(np.trace(fam.P[k]) - (n - k) * S[k]) for k in range(n)]
    trace_ap = [abs(np.trace(fam.A @ fam.P[k]) - (k + 1) * S[k + 1]) for k in range(n)]
    norm_sq = float(np.trace(fam.A @ fam.A))
    try:
        h1_sq = H[1] ** 2
    except OverflowError:   # a Python float power raises where numpy gives inf
        h1_sq = math.inf
    norm_res = abs(norm_sq - (n * n * h1_sq - n * (n - 1) * H[2]))
    scale = 1.0 + max(abs(s) for s in S) * n + norm_sq
    max_res = float(np.max(trace_p + trace_ap + [norm_res]))
    return {
        "scale": scale,
        "max_residual": max_res,
        "passed": math.isfinite(scale) and max_res <= 1e-10 * scale,
    }


def bk_telescope(A: np.ndarray, k: int) -> float:
    """Max-entry residual of the telescoping sum against -(n-k) P_{k-1}.

    The sum is B_k = sum_{j=0}^{k-1} (-1)^{k-j-1} (P_j - c_j H_j I) A^{k-1-j},
    evaluated directly; the base case is B_1 = (1-n) I.
    """
    fam = newton_family(A)
    n = fam.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} out of range 1..{n - 1}")
    H, c = fam.pack.H, fam.pack.c
    powers = [np.eye(n)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ fam.A)
    B = np.zeros((n, n))
    for j in range(k):
        sign = (-1.0) ** (k - j - 1)
        B += sign * (fam.P[j] @ powers[k - 1 - j] - c[j] * H[j] * powers[k - 1 - j])
    return float(np.max(np.abs(B + (n - k) * fam.P[k - 1])))


@dataclass(frozen=True)
class GardingReport:
    applicable: bool
    margins: tuple
    holds: bool
    umbilical: bool
    message: str = ""


def garding_chain(pack: SymmetricPack, k: int) -> GardingReport:
    """Margins of the chain H_1 >= H_2^(1/2) >= ... >= H_k^(1/k) > 0.

    Equality within 1e-8 relative (root-taking loses half the digits) at
    every stage flags an umbilical point.  If some H_j with
    j <= k is non-positive the chain does not apply and the report says
    so instead of raising.
    """
    n = pack.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    rel_tol = 1e-8
    bad = [j for j in range(1, k + 1) if pack.H[j] <= 0.0]
    if bad:
        return GardingReport(
            applicable=False, margins=(), holds=False, umbilical=False,
            message=f"H_{bad[0]} <= 0: chain not applicable",
        )
    roots = [pack.H[j] ** (1.0 / j) for j in range(1, k + 1)]
    margins = tuple(roots[j] - roots[j + 1] for j in range(k - 1))
    scale = max(1.0, roots[0])
    holds = all(m >= -rel_tol * scale for m in margins) and roots[-1] > 0.0
    umbilical = bool(margins) and all(abs(m) <= rel_tol * scale for m in margins)
    return GardingReport(applicable=True, margins=margins, holds=holds,
                         umbilical=umbilical)


@dataclass(frozen=True)
class EllipticityReport:
    applicable: bool
    margins: tuple
    min_margin: float
    positive: bool
    consistency_residual: float
    flipped: bool
    message: str = ""


def p1_ellipticity_check(A: np.ndarray) -> EllipticityReport:
    """Positivity of P_1 when H_2 > 0: the margins n H_1 - kappa_i.

    Orientation is normalized so that H_1 > 0 (flipping A -> -A when
    needed); with H_2 <= 0 the check is not applicable.  The margins are
    cross-checked against the eigenvalues of P_1 itself.
    """
    A = _symmetrized(A)
    kappas = jacobi_eigenvalues(A)
    pack = elementary_symmetric(kappas)
    n = pack.n
    if pack.H[2] <= 0.0:
        return EllipticityReport(applicable=False, margins=(), min_margin=float("nan"),
                                 positive=False, consistency_residual=float("nan"),
                                 flipped=False, message="H_2 <= 0: not applicable")
    flipped = pack.H[1] < 0.0
    if flipped:
        A = -A
        kappas = -kappas[::-1]
        pack = elementary_symmetric(kappas)
    margins = tuple(n * pack.H[1] - kap for kap in kappas)
    fam = newton_family(A)
    p1_eigs = jacobi_eigenvalues(fam.P[1])
    consistency = float(np.max(np.abs(np.sort(np.asarray(margins)) - p1_eigs)))
    return EllipticityReport(
        applicable=True,
        margins=margins,
        min_margin=float(min(margins)),
        positive=min(margins) > 0.0,
        consistency_residual=consistency,
        flipped=flipped,
    )


# ---------------------------------------------------------------------------
# batched helpers for grid sweeps
# ---------------------------------------------------------------------------
# The per-point API above is the claim-bearing route; the batched variants
# below exist so that grid sweeps stay vectorized.  numpy's batched `eigvalsh`
# is used for the spectra; the test suite pins it against the Jacobi solver.

def elementary_symmetric_batch(kappas: np.ndarray) -> np.ndarray:
    """S_0..S_n along the last axis; input shape (..., n)."""
    kappas = np.asarray(kappas, dtype=float)
    n = kappas.shape[-1]
    S = np.zeros(kappas.shape[:-1] + (n + 1,))
    S[..., 0] = 1.0
    for i in range(n):
        kap = kappas[..., i]
        for j in range(i + 1, 0, -1):
            S[..., j] += kap * S[..., j - 1]
    return S


def h_from_s(S: np.ndarray) -> np.ndarray:
    """Normalize S_k to H_k = S_k / binomial(n, k) along the last axis."""
    n = S.shape[-1] - 1
    denom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return S / denom


def newton_family_batch(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Stack P_0..P_{n-1}; input A shape (..., n, n), output (..., n, n, n).

    The stack is indexed ``P[..., k, :, :]``.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    eye = np.eye(n)
    P = np.zeros(A.shape[:-2] + (n, n, n))
    P[..., 0, :, :] = eye
    for k in range(1, n):
        P[..., k, :, :] = S[..., k, None, None] * eye - A @ P[..., k - 1, :, :]
    return P
