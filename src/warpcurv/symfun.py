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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._grid import components, matmul, node_major

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

    The last matrix's family is kept, keyed on the matrix's content, so
    the checks below solve each matrix once when its calls arrive back to
    back.  ``A`` and every ``P_k`` are read-only; ``P`` is a fresh list on
    every call.
    """
    A = np.asarray(A, dtype=float)
    sym, P, pack = _newton_arrays(A.shape, A.tobytes())
    return NewtonFamily(P=list(P), A=sym, pack=pack)


@functools.lru_cache(maxsize=1)
def _newton_arrays(shape: tuple, data: bytes):
    """The uncached body of ``newton_family``, its arrays read-only."""
    A = _symmetrized(np.frombuffer(data).reshape(shape))
    n = A.shape[0]
    if n > MAX_DIM:
        raise ValueError(f"dimension {n} exceeds cap {MAX_DIM}")
    pack = elementary_symmetric(jacobi_eigenvalues(A))
    P = [np.eye(n)]
    for k in range(1, n):
        P.append(pack.S[k] * np.eye(n) - A @ P[k - 1])
    for arr in [A, *P]:
        arr.flags.writeable = False
    return A, tuple(P), pack


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


# ---------------------------------------------------------------------------
# batched helpers for grid sweeps
# ---------------------------------------------------------------------------
# The per-point API above is the claim-bearing route; the batched variants
# below exist so that grid sweeps stay vectorized.  `jacobi_eigh_batch` runs
# the cyclic Jacobi method of `jacobi_eigenvalues` on whole grids at once,
# for the spectra and frames of the shape operators and of the calligraphic
# combinations; the test suite pins it against `numpy.linalg.eigh`.  The
# Newton tensors' spectra follow from the principal curvatures in closed
# form, pinned against `eigvalsh` of the batched Newton stack.

def jacobi_eigh_batch(A: np.ndarray, vectors: bool):
    """Eigenvalues of a stack of symmetric matrices, shape (..., n, n), in
    ascending order along the last axis, by cyclic Jacobi rotations; with
    ``vectors``, also the matrix of eigenvector columns, shape (..., n, n),
    returned as ``(values, vectors)``.

    Only the lower triangle enters the arithmetic, as in
    ``numpy.linalg.eigvalsh``.  The matrices are copied into
    component-major working grids, and each rotation (p, q) is applied to
    whole grids in place with the symmetric update: B_pp and B_qq move by
    -/+ t B_pq, B_pq becomes 0, and only the entries (r, p) and (r, q) of
    the other rows r turn.

    * A node stops rotating once each of its off-diagonal entries is at
      most eps times its own Frobenius norm (or after 60 sweeps).  From
      then on it gets t = 0, an identity rotation, so no node's result
      depends on the other nodes of the stack.
    * A node with a non-finite entry, in either triangle, takes no part
      and returns NaN eigenvalues and vectors.

    The results are node-major views of component-major buffers.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    stack = A.shape[:-2]
    # B[i*n + j] = A_ij, one copy whatever the layout of A
    B = np.array(components(A, 2), order="C").reshape((n * n, -1))
    count = B.shape[1]
    bad = ~np.isfinite(B).all(axis=0)
    np.copyto(B, 0.0, where=bad)
    # eps * ||A||_F per node from its lower triangle, scaled by the peak so
    # that no square overflows, and summed row by row, in one order for
    # every stack
    lower = [(i * n + j, 1.0 if i == j else 2.0)
             for i in range(n) for j in range(i + 1)]
    peak = np.max(np.abs(B[[row for row, _ in lower]]), axis=0)
    unit = np.where(peak > 0.0, peak, 1.0)
    squares = np.zeros(count)
    for row, weight in lower:
        squares += weight * (B[row] / unit) ** 2
    tol = np.sqrt(squares) * unit * np.finfo(float).eps

    # entries (i, j) and (j, i) both name the row of the lower triangle
    entry = [[B[max(i, j) * n + min(i, j)] for j in range(n)]
             for i in range(n)]
    off_rows = [i * n + j for i in range(n) for j in range(i)]
    if vectors:
        # column j of the eigenvector matrix is Q[j], so a rotation or a
        # swap of two columns acts on two whole rows of Q
        Q = np.zeros((n, n, count))
        for i in range(n):
            Q[i, i] = 1.0
        q_tmp, q_turned = np.empty((n, count)), np.empty((n, count))
    theta, t, c, s, tmp, turned = (np.empty(count) for _ in range(6))

    def rotate(x, y, tmp, turned):
        """(x, y) <- (c x - s y, s x + c y) in place."""
        np.multiply(c, x, out=turned)
        np.multiply(s, y, out=tmp)
        turned -= tmp
        y *= c
        np.multiply(s, x, out=tmp)
        y += tmp
        x[...] = turned

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(60):
            off = np.max(np.abs(B[off_rows]), axis=0, initial=0.0)
            active = off > tol
            if not active.any():
                break
            gate = 2.0 * active   # 0 at a stopped node, so its t is 0
            for p in range(n - 1):
                for q in range(p + 1, n):
                    bpp, bqq, bpq = entry[p][p], entry[q][q], entry[p][q]
                    # 2 theta = (B_qq - B_pp) / B_pq; |2 theta| is inf for
                    # B_pq = 0 (NaN when B_qq = B_pp too, read as inf)
                    np.subtract(bqq, bpp, out=theta)
                    theta /= bpq
                    np.abs(theta, out=t)
                    np.fmin(t, np.inf, out=t)
                    np.multiply(t, t, out=c)
                    c += 4.0
                    np.sqrt(c, out=c)
                    t += c
                    # t = sign(theta) / (|theta| + sqrt(theta^2 + 1))
                    np.divide(gate, t, out=t)
                    np.copysign(t, theta, out=t)
                    np.multiply(t, t, out=c)
                    c += 1.0
                    np.sqrt(c, out=c)
                    np.divide(1.0, c, out=c)
                    np.multiply(t, c, out=s)
                    np.multiply(t, bpq, out=tmp)
                    bpp -= tmp
                    bqq += tmp
                    bpq[...] = 0.0   # a stopped node's entry is below tol
                    for r in range(n):
                        if r != p and r != q:
                            rotate(entry[r][p], entry[r][q], tmp, turned)
                    if vectors:
                        rotate(Q[p], Q[q], q_tmp, q_turned)

    values = B[::n + 1].copy()
    # odd-even transposition sort: swaps only strictly out-of-order
    # neighbours, each with its eigenvector column
    for sweep in range(n):
        for i in range(sweep % 2, n - 1, 2):
            swap = values[i] > values[i + 1]
            for rows in (values, Q) if vectors else (values,):
                held = rows[i].copy()
                np.copyto(rows[i], rows[i + 1], where=swap)
                np.copyto(rows[i + 1], held, where=swap)
    np.copyto(values, np.nan, where=bad)
    values = np.moveaxis(values.reshape((n,) + stack), 0, -1)
    if not vectors:
        return values
    np.copyto(Q, np.nan, where=bad)
    return values, np.moveaxis(Q.reshape((n, n) + stack), (1, 0), (-2, -1))


def elementary_symmetric_batch(kappas: np.ndarray) -> np.ndarray:
    """S_0..S_n along the last axis; input shape (..., n).  The result is
    the node-major view of a component-major buffer, accumulated one whole
    grid S_j at a time."""
    kappas = np.asarray(kappas, dtype=float)
    n = kappas.shape[-1]
    S = np.zeros((n + 1,) + kappas.shape[:-1])
    S[0] = 1.0
    for i in range(n):
        kap = kappas[..., i]
        for j in range(i + 1, 0, -1):
            S[j] += kap * S[j - 1]
    return node_major(S, 1)


def h_from_s(S: np.ndarray) -> np.ndarray:
    """Normalize S_k to H_k = S_k / binomial(n, k) along the last axis."""
    n = S.shape[-1] - 1
    denom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return S / denom


def newton_family_batch(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Stack P_1..P_{n-1} as ``P[..., k-1, :, :]``, P_0 = I left out;
    input A shape (..., n, n) and S = S_0..S_n shape (..., n+1), output
    (..., n-1, n, n).

    P_1 = S_1 I - A and P_k = S_k I - A P_{k-1}, each product formed by
    ``_grid.matmul`` from whole grids, written into a component-major
    (n-1, n, n) + grid buffer whose node-major view is returned.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    Sc = components(S)
    P = np.empty((n - 1, n, n) + A.shape[:-2])
    for k in range(1, n):
        product = A if k == 1 else matmul(A, node_major(P[k - 2], 2))
        Pk = P[k - 1]
        np.negative(components(product, 2), out=Pk)
        for i in range(n):
            Pk[i, i] += Sc[k]
    return node_major(P, 3)


def newton_spectrum_batch(kappas: np.ndarray) -> np.ndarray:
    """Eigenvalues of P_0..P_{n-1} from the principal curvatures.

    Input shape (..., n), output (..., n, n) indexed ``[..., j, i]``: the
    eigenvalue of P_j on the i-th principal direction, S_j of the
    curvatures with kappa_i left out.  A NaN curvature makes every entry
    that depends on it NaN.
    """
    kappas = np.asarray(kappas, dtype=float)
    n = kappas.shape[-1]
    others = np.array([[m for m in range(n) if m != i] for i in range(n)],
                      dtype=int)
    return np.swapaxes(elementary_symmetric_batch(kappas[..., others]), -1, -2)
