"""Symmetric-function layer: oracles are brute-force subset enumeration
and numpy's eigensolver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import positive_definite, random_symmetric
from warpcurv import symfun


def esym_enumerated(kappas, k):
    """Brute-force elementary symmetric function (the oracle)."""
    if k == 0:
        return 1.0
    return sum(math.prod(c) for c in itertools.combinations(kappas, k))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_elementary_symmetric_against_enumeration(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        kappas = rng.normal(size=n)
        pack = symfun.elementary_symmetric(kappas)
        for k in range(n + 1):
            expect = esym_enumerated(kappas, k)
            scale = max(1.0, abs(expect))
            assert abs(pack.S[k] - expect) <= 1e-12 * scale
            assert abs(pack.H[k] - expect / math.comb(n, k)) <= 1e-12 * scale


def test_charpoly_cross_check():
    # prod(x - kappa_i) = sum_k (-1)^k S_k x^(n-k)
    rng = np.random.default_rng(7)
    kappas = rng.normal(size=5)
    pack = symfun.elementary_symmetric(kappas)
    coeffs = np.poly(kappas)
    for k in range(6):
        assert abs(coeffs[k] - (-1.0) ** k * pack.S[k]) <= 1e-12 * max(
            1.0, abs(pack.S[k]))


@given(st.integers(min_value=2, max_value=symfun.MAX_DIM),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_jacobi_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, n)
    ours = symfun.jacobi_eigenvalues(A)
    ref = np.linalg.eigvalsh(A)
    assert np.max(np.abs(ours - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("n", range(2, symfun.MAX_DIM + 1))
def test_jacobi_degenerate_spectra(n):
    rng = np.random.default_rng(400 + n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectrum = np.ones(n)
    spectrum[-1] = 2.0
    repeated = symfun.jacobi_eigenvalues(Q @ np.diag(spectrum) @ Q.T)
    assert np.max(np.abs(repeated - spectrum)) <= 1e-13
    assert np.array_equal(symfun.jacobi_eigenvalues(np.zeros((n, n))),
                          np.zeros(n))
    # an already-diagonal matrix needs no rotation: its diagonal, sorted
    d = rng.normal(size=n)
    assert np.array_equal(symfun.jacobi_eigenvalues(np.diag(d)), np.sort(d))


def jacobi_by_matrix_products(A):
    """Oracle: the same cyclic Jacobi method, each rotation applied as the
    full product rot.T @ B @ rot."""
    B = np.array(A, dtype=float)
    n = B.shape[0]
    scale = max(1.0, float(np.max(np.abs(B))))
    for _ in range(60):
        if math.sqrt(float(np.sum(np.tril(B, -1) ** 2))) <= 1e-13 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = B[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (B[q, q] - B[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = t * c
                rot[q, p] = -t * c
                B = rot.T @ B @ rot
    return np.sort(np.diag(B), kind="stable")


def test_jacobi_matches_matrix_product_rotations():
    # updating rows and columns p, q alone must give the eigenvalues the
    # full products give, up to summation order
    rng = np.random.default_rng(41)
    for i in range(350):
        n = 2 + i % (symfun.MAX_DIM - 1)
        A = random_symmetric(rng, n) * 10.0 ** rng.uniform(-3, 3)
        if i % 5 == 0:    # a repeated eigenvalue
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = Q @ np.diag(np.r_[np.ones(n - 1), 2.0]) @ Q.T
        got, want = symfun.jacobi_eigenvalues(A), jacobi_by_matrix_products(A)
        scale = max(1.0, float(np.max(np.abs(A))))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (n, A)


@pytest.mark.parametrize("A", [
    [[1.0, math.inf], [math.inf, 2.0]],
    [[1.0, math.nan], [math.nan, 2.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [1.0, 2.0],
], ids=["inf", "nan", "non-square", "vector"])
def test_jacobi_refuses_non_finite_or_non_square_input(A):
    with pytest.raises(ValueError):
        symfun.jacobi_eigenvalues(A)


@pytest.mark.parametrize("A", [
    [[1.0, math.inf], [math.inf, 2.0]],
    [[1.0, math.nan], [math.nan, 2.0]],
    # finite, but A + A.T overflows
    [[1.0, 1e308], [1e308, 2.0]],
], ids=["inf", "nan", "overflow"])
def test_symmetrized_refuses_non_finite_matrices(A):
    with pytest.raises(ValueError):
        symfun.trace_and_norm_identities(np.array(A))
    with pytest.raises(ValueError):
        symfun.p1_ellipticity_check(np.array(A))


def test_orthogonal_invariance():
    rng = np.random.default_rng(11)
    A = random_symmetric(rng, 4)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    B = Q.T @ A @ Q
    fa = symfun.newton_family(A)
    fb = symfun.newton_family(B)
    assert np.allclose(fa.pack.S, fb.pack.S, atol=1e-11)
    # Newton tensors transform covariantly
    for k in range(4):
        assert np.max(np.abs(Q.T @ fa.P[k] @ Q - fb.P[k])) <= 1e-10


def test_orientation_flip_parity():
    rng = np.random.default_rng(13)
    A = random_symmetric(rng, 5)
    sp = symfun.elementary_symmetric(symfun.jacobi_eigenvalues(A))
    sm = symfun.elementary_symmetric(symfun.jacobi_eigenvalues(-A))
    for k in range(6):
        assert abs(sm.S[k] - (-1.0) ** k * sp.S[k]) <= 1e-11 * max(
            1.0, abs(sp.S[k]))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_trace_identities(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(10):
        report = symfun.trace_and_norm_identities(random_symmetric(rng, n))
        assert report["passed"], report


def test_trace_identities_fail_on_an_overflowed_scale():
    # |A|^2 and S_2 overflow: a NaN residual and an infinite scale must not
    # read as a pass.  In the second matrix H_1 = 1e160 is finite, but its
    # square overflows as a Python float.
    for A in ([[0.0, 1e155], [1e155, 0.0]], [[1e160, 0.0], [0.0, 1e160]]):
        with np.errstate(over="ignore", invalid="ignore"):
            report = symfun.trace_and_norm_identities(np.array(A))
        assert report["scale"] == math.inf, A
        assert not report["passed"], A


def test_newton_recursion_terminates():
    # Cayley-Hamilton: S_n I - A P_{n-1} = 0
    rng = np.random.default_rng(17)
    A = random_symmetric(rng, 4)
    fam = symfun.newton_family(A)
    top = fam.pack.S[4] * np.eye(4) - A @ fam.P[3]
    assert np.max(np.abs(top)) <= 1e-11 * max(1.0, abs(fam.pack.S[4]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_bk_telescope_vanishes(k):
    rng = np.random.default_rng(300 + k)
    for n in (k + 1, 6):
        val = symfun.bk_telescope(random_symmetric(rng, n), k)
        assert abs(val) <= 1e-10


def test_garding_chain_on_definite_matrix():
    rng = np.random.default_rng(23)
    A = positive_definite(rng, 5)
    pack = symfun.elementary_symmetric(symfun.jacobi_eigenvalues(A))
    rep = symfun.garding_chain(pack, 5)
    assert rep.applicable and rep.holds
    assert all(m >= -1e-12 for m in rep.margins)
    assert not rep.umbilical


def test_garding_equality_iff_umbilical():
    pack = symfun.elementary_symmetric(np.full(4, 1.7))
    rep = symfun.garding_chain(pack, 4)
    assert rep.holds and rep.umbilical


def test_garding_not_applicable_for_nonpositive_h1():
    pack = symfun.elementary_symmetric(np.array([-1.0, -2.0, 0.5]))
    rep = symfun.garding_chain(pack, 2)
    assert not rep.applicable


def test_p1_ellipticity_from_h2():
    rng = np.random.default_rng(29)
    A = positive_definite(rng, 4)
    rep = symfun.p1_ellipticity_check(A)
    assert rep.applicable and rep.positive
    assert rep.min_margin > 0


@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_p1_ellipticity_margins_match_p1_spectrum(n, seed, shift):
    # the second route: the margins n H_1 - kappa_i must be the eigenvalues
    # of P_1 itself, in the orientation that makes H_1 positive
    A = random_symmetric(np.random.default_rng(seed), n) + shift * np.eye(n)
    h = symfun.elementary_symmetric(np.linalg.eigvalsh(A)).H
    assume(h[2] > 1e-6)    # then H_1^2 >= H_2 keeps H_1 away from zero
    rep = symfun.p1_ellipticity_check(A)
    scale = 1.0 + float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert rep.applicable
    assert rep.consistency_residual <= 1e-10 * scale
    assert rep.flipped == (h[1] < 0.0)


def test_batch_matches_scalar():
    rng = np.random.default_rng(31)
    kappas = rng.normal(size=(7, 4))
    S = symfun.elementary_symmetric_batch(kappas)
    H = symfun.h_from_s(S)
    for i in range(7):
        pack = symfun.elementary_symmetric(kappas[i])
        assert np.max(np.abs(S[i] - pack.S)) <= 1e-12
        assert np.max(np.abs(H[i] - pack.H)) <= 1e-12


def test_newton_batch_matches_scalar():
    rng = np.random.default_rng(37)
    A = np.stack([random_symmetric(rng, 3) for _ in range(5)])
    kappas = np.linalg.eigvalsh(A)
    S = symfun.elementary_symmetric_batch(kappas)
    P = symfun.newton_family_batch(A, S)
    for i in range(5):
        fam = symfun.newton_family(A[i])
        for k in range(3):
            assert np.max(np.abs(P[i, k] - fam.P[k])) <= 1e-10


def test_dimension_guard():
    with pytest.raises(ValueError):
        symfun.elementary_symmetric(np.zeros(symfun.MAX_DIM + 1))


@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_spectrum_roundtrip(n, seed):
    # eigenvalues of P_k are the partial elementary symmetric sums:
    # for A = diag(kappas), P_k has diagonal S_k(kappas without i)
    rng = np.random.default_rng(seed)
    kappas = rng.normal(size=n)
    fam = symfun.newton_family(np.diag(kappas))
    for k in range(n):
        for i in range(n):
            others = np.delete(kappas, i)
            expect = esym_enumerated(others, k)
            assert abs(fam.P[k][i, i] - expect) <= 1e-9 * max(1.0, abs(expect))
