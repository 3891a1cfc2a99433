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


def _garding_margins(A):
    """H_j^(1/j) - H_{j+1}^(1/(j+1)) for j = 1..n-1."""
    H = symfun.elementary_symmetric(symfun.jacobi_eigenvalues(A)).H
    roots = [H[j] ** (1.0 / j) for j in range(1, len(H))]
    return np.array(roots[:-1]) - np.array(roots[1:])


def test_garding_chain():
    # H_1 >= H_2^(1/2) >= ... >= H_n^(1/n) > 0 on the positive cone, with
    # equality at every stage for an umbilical matrix only
    rng = np.random.default_rng(23)
    for n in (2, 3, 5):
        margins = _garding_margins(positive_definite(rng, n))
        assert np.min(margins) >= -1e-12 and np.max(margins) > 1e-8, n
    assert np.max(np.abs(_garding_margins(1.7 * np.eye(4)))) <= 1e-12


@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(-4.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_p1_is_definite_with_margins_n_h1_minus_kappa(n, seed, shift):
    # with H_2 > 0, in the orientation that makes H_1 positive, P_1 is
    # positive definite and its eigenvalues are the margins n H_1 - kappa_i
    A = random_symmetric(np.random.default_rng(seed), n) + shift * np.eye(n)
    kappas = symfun.jacobi_eigenvalues(A)
    h = symfun.elementary_symmetric(kappas).H
    assume(h[2] > 1e-6)    # then H_1^2 >= H_2 keeps H_1 away from zero
    if h[1] < 0.0:
        A, kappas = -A, -kappas
    margins = np.sort(n * abs(h[1]) - kappas)
    p1 = symfun.jacobi_eigenvalues(symfun.newton_family(A).P[1])
    scale = 1.0 + float(np.max(np.abs(kappas)))
    assert np.max(np.abs(margins - p1)) <= 1e-10 * scale
    assert margins[0] > 0.0


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
    # P_0 = I is not stored: the stack holds P_1..P_{n-1}
    assert P.shape == (5, 2, 3, 3)
    for i in range(5):
        fam = symfun.newton_family(A[i])
        for k in range(1, 3):
            assert np.max(np.abs(P[i, k - 1] - fam.P[k])) <= 1e-10


@pytest.mark.parametrize("n", range(2, symfun.MAX_DIM + 1))
def test_newton_spectrum_matches_the_newton_stack(n):
    # sorted per tensor, the closed form S_j(kappas without kappa_i) must
    # equal eigvalsh of P_j to 1e-13 of max(1, max|kappa|)^j; the stack
    # starts at P_1, and P_0 = I has every eigenvalue 1
    rng = np.random.default_rng(500 + n)
    Q = np.linalg.qr(rng.normal(size=(20, n, n)))[0]
    repeated = Q @ (np.r_[np.ones(n - 1), 2.0][:, None]
                    * np.swapaxes(Q, -1, -2))
    base = np.concatenate([
        np.stack([random_symmetric(rng, n) for _ in range(40)]),
        0.5 * (repeated + np.swapaxes(repeated, -1, -2)),
        np.zeros((1, n, n)), np.eye(n)[None]])
    for scale in (1e-8, 1.0, 1e8):
        A = scale * base
        kappas = np.linalg.eigvalsh(A)
        S = symfun.elementary_symmetric_batch(kappas)
        expect = np.linalg.eigvalsh(symfun.newton_family_batch(A, S))
        got = np.sort(symfun.newton_spectrum_batch(kappas), axis=-1)
        assert np.all(got[:, 0] == 1.0)
        top = np.maximum(1.0, np.max(np.abs(kappas), axis=-1))
        tol = 1e-13 * top[:, None, None] ** np.arange(1, n)[:, None]
        assert np.all(np.abs(got[:, 1:] - expect) <= tol)


def test_newton_spectrum_carries_nan():
    spectrum = symfun.newton_spectrum_batch(np.array([np.nan, 1.0, 2.0]))
    assert np.all(spectrum[0] == 1.0)
    assert np.all(np.isnan(spectrum[1:, 1:]))
    assert np.all(np.isfinite(spectrum[1:, 0]))


def _oracle_stack(rng, n):
    """Random symmetric matrices, a repeated eigenvalue, rank one,
    diagonal and graded matrices, the zero matrix and the identity."""
    def sym(X):
        return 0.5 * (X + np.swapaxes(X, -1, -2))
    Q = np.linalg.qr(rng.normal(size=(10, n, n)))[0]
    spectrum = np.r_[np.ones(n - 1), 2.0]
    v = rng.normal(size=(10, n))
    graded = 10.0 ** rng.uniform(-12, 0, size=(10, n))
    return np.concatenate([
        sym(rng.normal(size=(40, n, n))),
        sym(Q @ (spectrum[:, None] * np.swapaxes(Q, -1, -2))),
        v[:, :, None] * v[:, None, :],
        np.stack([np.diag(d) for d in rng.normal(size=(10, n))]),
        sym(Q @ (graded[:, :, None] * np.swapaxes(Q, -1, -2))),
        np.zeros((1, n, n)), np.eye(n)[None]])


@pytest.mark.parametrize("n", range(1, symfun.MAX_DIM + 1))
def test_jacobi_batch_matches_eigh(n):
    # |dlambda| and |Q Lambda Q^T - A| within 4 n eps |A|_F per node, and
    # |Q^T Q - I| within 4 n eps, at scales where a square of an entry
    # would overflow or underflow
    eps = np.finfo(float).eps
    base = _oracle_stack(np.random.default_rng(600 + n), n)
    for scale in (1e-150, 1.0, 1e150):
        A = scale * base
        values, Q = symfun.jacobi_eigh_batch(A, True)
        assert np.array_equal(symfun.jacobi_eigh_batch(A, False), values)
        assert np.all(np.diff(values, axis=-1) >= 0.0)
        frobenius = scale * np.sqrt(np.sum(base ** 2, axis=(-1, -2)))
        bound = 4 * n * eps * frobenius
        ref = np.linalg.eigh(A)[0]
        assert np.all(np.max(np.abs(values - ref), axis=-1) <= bound)
        rebuilt = (Q * values[:, None, :]) @ np.swapaxes(Q, -1, -2)
        assert np.all(np.max(np.abs(rebuilt - A), axis=(-1, -2)) <= bound)
        gram = np.swapaxes(Q, -1, -2) @ Q
        assert np.max(np.abs(gram - np.eye(n))) <= 4 * n * eps
    # diagonal matrices need no rotation: the sorted diagonal, identity
    # columns permuted with it, tied entries kept in their order
    d = np.round(np.random.default_rng(700 + n).normal(size=(5, n)))
    values, Q = symfun.jacobi_eigh_batch(d[:, :, None] * np.eye(n), True)
    order = np.argsort(d, axis=-1, kind="stable")
    assert np.array_equal(values, np.take_along_axis(d, order, axis=-1))
    assert np.array_equal(Q, np.eye(n)[:, order].transpose(1, 0, 2))


def test_jacobi_batch_reads_the_lower_triangle():
    rng = np.random.default_rng(41)
    A = _oracle_stack(rng, 4)
    skewed = A + np.triu(rng.normal(size=A.shape), 1)
    assert np.array_equal(symfun.jacobi_eigh_batch(skewed, False),
                          symfun.jacobi_eigh_batch(A, False))
    for got, expect in zip(symfun.jacobi_eigh_batch(skewed, True),
                           symfun.jacobi_eigh_batch(A, True)):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_jacobi_batch_nodes_are_independent(n):
    # a node's bits do not depend on the stack around it: one node, a
    # sub-stack, a rolled stack and a grid-shaped stack give the same, and
    # no input is written to
    A = _oracle_stack(np.random.default_rng(800 + n), n)
    kept = A.copy()
    values, Q = symfun.jacobi_eigh_batch(A, True)
    for i in (0, 17, len(A) - 1):
        one_value, one_Q = symfun.jacobi_eigh_batch(A[i], True)
        assert np.array_equal(one_value, values[i])
        assert np.array_equal(one_Q, Q[i])
    assert np.array_equal(A, kept)
    sub_values, sub_Q = symfun.jacobi_eigh_batch(A[45:63], True)
    assert np.array_equal(sub_values, values[45:63])
    assert np.array_equal(sub_Q, Q[45:63])
    rolled_values, rolled_Q = symfun.jacobi_eigh_batch(np.roll(A, 7, axis=0),
                                                       True)
    assert np.array_equal(rolled_values, np.roll(values, 7, axis=0))
    assert np.array_equal(rolled_Q, np.roll(Q, 7, axis=0))
    grid = A[:80].reshape(4, 20, n, n)
    assert np.array_equal(symfun.jacobi_eigh_batch(grid, False),
                          values[:80].reshape(4, 20, n))


def test_jacobi_batch_gives_nan_at_a_non_finite_node():
    # the node returns NaN values and vectors, its neighbours their own
    # bits, and no warning escapes (the suite turns one into an error)
    A = _oracle_stack(np.random.default_rng(43), 3)
    values, Q = symfun.jacobi_eigh_batch(A, True)
    doctored = A.copy()
    doctored[3, 0, 0] = np.nan
    doctored[8, 2, 1] = np.inf
    doctored[9, 0, 2] = -np.inf   # an upper entry is read for this check
    got_values, got_Q = symfun.jacobi_eigh_batch(doctored, True)
    bad = np.isin(np.arange(len(A)), [3, 8, 9])
    assert np.all(np.isnan(got_values[bad])) and np.all(np.isnan(got_Q[bad]))
    assert np.array_equal(got_values[~bad], values[~bad])
    assert np.array_equal(got_Q[~bad], Q[~bad])
    assert np.array_equal(symfun.jacobi_eigh_batch(doctored, False),
                          got_values, equal_nan=True)


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


# -- the one-entry memo of newton_family ------------------------------------

@pytest.fixture
def jacobi_calls(monkeypatch):
    """Empty the memo and count the Jacobi solves made from here on."""
    symfun._newton_arrays.cache_clear()
    calls = []
    solve = symfun.jacobi_eigenvalues

    def counted(A):
        calls.append(np.array(A))
        return solve(A)

    monkeypatch.setattr(symfun, "jacobi_eigenvalues", counted)
    yield calls
    symfun._newton_arrays.cache_clear()


def test_each_matrix_is_solved_once_across_its_checks(jacobi_calls):
    A = random_symmetric(np.random.default_rng(2101), 6)
    assert symfun.trace_and_norm_identities(A)["passed"]
    fam = symfun.newton_family(A)
    assert max(symfun.bk_telescope(A, k) for k in range(1, 6)) <= 1e-10
    assert len(jacobi_calls) == 1
    assert len(fam.P) == 6 and np.array_equal(fam.A, A)


def test_the_memo_holds_one_matrix(jacobi_calls):
    rng = np.random.default_rng(2102)
    A, B = random_symmetric(rng, 4), random_symmetric(rng, 4)
    fa, fb, fa2 = (symfun.newton_family(M) for M in (A, B, A))
    assert len(jacobi_calls) == 3
    assert fa.pack == fa2.pack != fb.pack
    assert all(np.array_equal(p, q) for p, q in zip(fa.P, fa2.P))


def test_an_in_place_write_is_a_new_matrix(jacobi_calls):
    A = random_symmetric(np.random.default_rng(2103), 3)
    before = symfun.newton_family(A)
    A[0, 0] += 1.0
    after = symfun.newton_family(A)
    assert len(jacobi_calls) == 2
    assert after.A[0, 0] == before.A[0, 0] + 1.0
    assert after.pack.S[1] == pytest.approx(before.pack.S[1] + 1.0)
    assert not np.array_equal(after.P[1], before.P[1])


def test_the_family_is_read_only_in_a_fresh_list(jacobi_calls):
    A = random_symmetric(np.random.default_rng(2104), 4)
    fam = symfun.newton_family(A)
    assert A.flags.writeable
    for arr in [fam.A, *fam.P]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    fam.P[-1] = fam.P[-1] + 1e-6
    again = symfun.newton_family(A)
    assert len(jacobi_calls) == 1
    assert again.P is not fam.P
    assert not np.array_equal(again.P[-1], fam.P[-1])
    assert np.array_equal(again.P[-1], symfun.newton_family(A.copy()).P[-1])


@pytest.mark.parametrize("A", [
    [[1.0, math.nan], [math.nan, 2.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    [[1.0, 1.0], [0.0, 1.0]],
    np.eye(symfun.MAX_DIM + 1),
], ids=["nan", "non-square", "asymmetric", "n9"])
def test_a_refused_matrix_is_refused_again(A, jacobi_calls):
    for _ in range(2):
        with pytest.raises(ValueError):
            symfun.newton_family(A)
    assert jacobi_calls == []
    assert symfun._newton_arrays.cache_info().currsize == 0
