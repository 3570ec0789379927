"""Spectral norms, operator summaries, sparsity functionals, and tail rules."""

import functools
import gc
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

import covlab.diagnostics

from covlab import (
    CovMatrix,
    Matern,
    NuSequence,
    SquaredExponential,
    UsageError,
    build_grid,
    cholesky_psd,
    discretize,
    eps_star,
    gamma1,
    gamma2,
    kl_gaussian,
    kl_gaussian_both,
    lowrank_update_norm,
    m_star,
    operator_quantities,
    spectral_norm,
    tridiagonal_form,
)
from helpers import (
    FORM_EXTRA_PER_ROW,
    form_doubles,
    random_psd,
    random_symmetric,
    traced_peak_bytes,
)


class TestSpectralNorm:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 180))
            A = random_symmetric(rng, n)
            dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
            got = spectral_norm(A, tol=1e-9, method="arpack")
            assert abs(got - dense) <= 1e-8 * dense

    def test_methods_agree_on_large_kernel_matrix(self):
        C = discretize(SquaredExponential(0.02), build_grid(1, 300))
        a = spectral_norm(C.entries, tol=1e-9, method="dense")
        b = spectral_norm(C.entries, tol=1e-9, method="arpack")
        assert a == pytest.approx(b, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((5, 5))) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        A = random_symmetric(rng, 400)
        assert spectral_norm(A, tol=1e-10) == spectral_norm(A, tol=1e-10)

    def test_negative_extreme_eigenvalue_is_captured(self):
        A = np.diag(np.concatenate([np.linspace(0.0, 1.0, 50), [-3.0]]))
        assert spectral_norm(A, method="arpack") == pytest.approx(3.0, rel=1e-9)

    def test_block_diagonal_norm_is_max_over_blocks(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            k = int(rng.integers(2, 9))
            blocks = [random_psd(rng, int(rng.integers(2, 30))) for _ in range(k)]
            A = np.zeros((sum(b.shape[0] for b in blocks),) * 2)
            at = 0
            for b in blocks:
                m = b.shape[0]
                A[at : at + m, at : at + m] = b
                at += m
            want = max(float(np.max(np.linalg.eigvalsh(b))) for b in blocks)
            assert spectral_norm(A, tol=1e-12) == pytest.approx(want, rel=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(UsageError):
            spectral_norm(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_nonsymmetric_on_the_iterative_path(self):
        A = random_symmetric(np.random.default_rng(3), 400)
        A[0, 1] += 1e-6
        with pytest.raises(UsageError, match="not symmetric"):
            spectral_norm(A)

    @pytest.mark.parametrize("n", [50, 300], ids=["dense", "arpack"])
    def test_cov_matrix_gives_the_array_result(self, n):
        # Its entries are not scanned again, and the norm keeps its bits.
        C = discretize(SquaredExponential(0.05), build_grid(1, n))
        assert spectral_norm(C, tol=1e-9) == spectral_norm(C.entries, tol=1e-9)

    def test_all_zero_cov_matrix(self):
        # ARPACK cannot start on it (error -9); the dense solve gives 0.
        assert spectral_norm(CovMatrix(entries=np.zeros((300, 300)))) == 0.0

    def test_empty_array_has_norm_zero(self):
        # CovMatrix refuses a 0 x 0 matrix; a bare array of that shape is fine.
        assert spectral_norm(np.zeros((0, 0))) == 0.0

    def test_cov_matrix_still_checks_tolerance_and_method(self):
        C = CovMatrix(entries=np.eye(3))
        with pytest.raises(UsageError, match="tolerance"):
            spectral_norm(C, tol=0.5)
        with pytest.raises(UsageError, match="unknown method"):
            spectral_norm(C, method="power")

    def test_iterative_path_is_named_after_its_solver(self):
        with pytest.raises(UsageError, match="unknown method 'lanczos'"):
            spectral_norm(np.eye(3), method="lanczos")

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_top_eigenvector_orthogonal_to_ones(self, tol):
        # A start vector of exact ones has no component along u, so the
        # iteration would never see the top eigenvalue 5.1 and return 1.1.
        n = 400
        u = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
        s = np.ones(n) / math.sqrt(n)
        A = 5.0 * np.outer(u, u) + np.outer(s, s) + 0.1 * np.eye(n)
        assert spectral_norm(A, tol=tol, method="arpack") == pytest.approx(5.1, rel=1e-8)

    @pytest.mark.parametrize(
        "A", [np.array([[-2.5]]), np.array([[1.0, 3.0], [3.0, -1.0]])], ids=["1x1", "2x2"]
    )
    def test_tiny_matrices_on_the_iterative_path(self, A):
        dense = spectral_norm(A, method="dense")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_norm(A, method="arpack")
        assert got == pytest.approx(dense, rel=1e-12)

    def test_clustered_top_falls_back_to_dense_within_n_matvecs(self, monkeypatch):
        # Twenty eigenvalues within 1e-5 of the top: unbounded, ARPACK needs
        # about 3900 matvecs at tol 1e-9 here, far more than a dense solve.
        n = 300
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ev = np.concatenate([3.0 * (1 - 1e-5 * np.arange(20) / 20), rng.uniform(-2, 2, n - 20)])
        A = (Q * ev) @ Q.T
        A = (A + A.T) / 2.0
        matvecs = []
        real_eigsh = covlab.diagnostics.eigsh

        def counting_eigsh(M, **kwargs):
            def matvec(x):
                matvecs.append(1)
                return M @ x

            op = scipy.sparse.linalg.LinearOperator(M.shape, matvec=matvec, dtype=M.dtype)
            return real_eigsh(op, **kwargs)

        monkeypatch.setattr(covlab.diagnostics, "eigsh", counting_eigsh)
        got = spectral_norm(A, tol=1e-9, method="arpack")
        assert got == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(A)))), rel=1e-9)
        assert len(matvecs) <= n

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [50, 400], ids=["dense", "arpack"])
    def test_refuses_non_finite_entries(self, n, bad):
        A = random_symmetric(np.random.default_rng(n), n)
        A[3, 3] = bad
        with pytest.raises(UsageError, match="non-finite"):
            spectral_norm(A)

    @pytest.mark.parametrize("asymmetric", [False, True], ids=["symmetric", "last-bit"])
    def test_allocates_at_most_one_matrix(self, asymmetric):
        n = 600
        A = discretize(SquaredExponential(0.05), build_grid(1, n)).entries
        if asymmetric:  # folded into exact symmetry before ARPACK
            A = A + np.triu(np.full((n, n), 1e-17), 1)
        peak = traced_peak_bytes(lambda: spectral_norm(A, tol=1e-9))
        assert peak <= 1.5 * A.nbytes

    def test_dense_fallback_when_arpack_does_not_converge(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(covlab.diagnostics, "eigsh", no_convergence)
        A = random_symmetric(np.random.default_rng(5), 300)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        assert spectral_norm(A, method="arpack") == dense
        assert spectral_norm(A, method="auto") == dense


class TestDifferenceOperator:
    """spectral_norm of a trial's error operator: a matvec, its size and a
    dense() formed only for a dense solve."""

    @staticmethod
    def _operator(A, log):
        def matvec(v):
            log.append("matvec")
            return A @ v

        def dense():
            log.append("dense")
            return A

        return covlab.diagnostics._DifferenceOperator(n=A.shape[0], matvec=matvec, dense=dense)

    @pytest.mark.parametrize("n, method, route", [
        (200, "auto", "dense"), (400, "auto", "matvec"), (400, "dense", "dense"),
        (200, "arpack", "matvec"),
    ])
    def test_routes_and_values(self, n, method, route):
        A = random_symmetric(np.random.default_rng(n), n)
        log = []
        got = spectral_norm(self._operator(A, log), tol=1e-9, method=method)
        assert set(log) == {route}
        assert got == pytest.approx(spectral_norm(A, tol=1e-9, method=method), rel=1e-9)

    def test_dense_fallback_forms_the_difference_once(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(covlab.diagnostics, "eigsh", no_convergence)
        A = random_symmetric(np.random.default_rng(3), 300)
        log = []
        assert spectral_norm(self._operator(A, log)) == float(np.max(np.abs(np.linalg.eigvalsh(A))))
        assert log == ["dense"]

    def test_operator_gets_four_times_the_restarts(self, monkeypatch):
        # A truth keeps max(10, n // 160) restarts; an error operator, whose
        # matvec is cheap, gets max(10, n // 40).
        caps = []
        real_eigsh = covlab.diagnostics.eigsh

        def capped(A, **kwargs):
            caps.append(kwargs["maxiter"])
            return real_eigsh(A, **kwargs)

        monkeypatch.setattr(covlab.diagnostics, "eigsh", capped)
        C = discretize(SquaredExponential(0.1), build_grid(1, 1250))
        spectral_norm(C, tol=1e-6)
        operator_quantities(C, tol=1e-6)
        spectral_norm(self._operator(C.entries, []), tol=1e-6)
        assert caps == [10, 10, 31]


def _planted_top(rng, n, top, cluster, gap, orthogonal_to_ones, bulk=0.5, mirrored=False):
    """Symmetric n x n matrix whose `cluster` largest-magnitude eigenvalues
    lie within relative `gap` of `top`; the rest lie in (-bulk, bulk) * |top|.

    With orthogonal_to_ones the top eigenvectors are orthogonal to the ones
    vector, and ones itself is an eigenvector at 0.9 * top.  A mirrored
    matrix is exactly centrosymmetric, and its top eigenvectors alternate
    between even and odd under row reversal, so the blocks of a split form
    each hold members of the top.
    """
    G = rng.standard_normal((n, cluster + 1))
    if mirrored:
        G = np.where(np.arange(cluster + 1) % 2 == 1, G + G[::-1], G - G[::-1])
    if orthogonal_to_ones:
        G[:, 0] = 1.0
    V, _ = np.linalg.qr(G)
    values = top * (1.0 - gap * np.arange(cluster) / max(cluster - 1, 1))
    V, values = (V, np.append(0.9 * top, values)) if orthogonal_to_ones else (V[:, 1:], values)
    # The bulk is a diagonal matrix D projected off the planted directions.
    D = rng.uniform(-bulk, bulk, n) * abs(top)
    if mirrored:
        D = (D + D[::-1]) / 2.0
    DV = D[:, None] * V
    A = np.diag(D) - V @ DV.T - DV @ V.T + V @ (V.T @ DV) @ V.T + (V * values) @ V.T
    A = (A + A.T) / 2.0
    return _centrosymmetric(A) if mirrored else A


def _centrosymmetric(A):
    """The fold (A + A rotated by 180 degrees) / 2: exactly symmetric and
    centrosymmetric when A is exactly symmetric."""
    return (A + A[::-1, ::-1]) / 2.0


@pytest.mark.parametrize("orthogonal_to_ones", [False, True], ids=["clustered", "orthogonal"])
@given(
    n=st.integers(257, 600),
    cluster=st.integers(2, 8),
    gap=st.floats(1e-9, 1e-4),
    top=st.sampled_from((-3.0, 1.0, 40.0)),
    tol=st.sampled_from((1e-6, 1e-9)),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_norm_matches_dense_on_planted_tops(
    orthogonal_to_ones, n, cluster, gap, top, tol, seed
):
    A = _planted_top(np.random.default_rng(seed), n, top, cluster, gap, orthogonal_to_ones)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert abs(spectral_norm(A, tol=tol) - dense) <= 10 * tol * dense


@pytest.mark.xfail(strict=False, reason=(
    "known defect: ARPACK accepts a converged Ritz pair of the second cluster "
    "member when the start vector carries little of the first"
))
def test_two_member_top_over_a_wide_bulk():
    # A bulk reaching 0.9 |top| slows the separation of a two-member cluster;
    # here spectral_norm returns the second member, 7.4e-5 relative below.
    A = _planted_top(np.random.default_rng(257), 257, -3.0, 2, 7.416935469683317e-05, False, 0.9)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    assert abs(spectral_norm(A, tol=1e-6) - dense) <= 10 * 1e-6 * dense


def _dense_update_norm(A, rows, B):
    E = -A.copy()
    E[np.ix_(rows, rows)] += B
    return float(np.max(np.abs(np.linalg.eigvalsh(E))))


def _sample_block(rng, A, rows, noise=0.3):
    """A's block on rows plus a symmetric perturbation, like a thresholded
    sample covariance."""
    P = noise * rng.standard_normal((rows.size, rows.size))
    return A[np.ix_(rows, rows)] + (P + P.T) / 2.0


class TestTridiagonalForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 300])
    def test_reproduces_the_matrix_and_its_spectrum(self, n):
        A = random_symmetric(np.random.default_rng(n), n)
        form = tridiagonal_form(A)
        T = np.diag(form.d) + np.diag(form.e, 1) + np.diag(form.e, -1)
        X = np.random.default_rng(1).standard_normal((n, 4))
        # Q^T A X = T Q^T X
        assert np.max(np.abs(form.transpose_apply(A @ X) - T @ form.transpose_apply(X))) <= 1e-13 * n
        assert np.max(np.abs(form.spectrum - np.linalg.eigvalsh(A))) <= 1e-13 * n
        assert form.norm == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(A)))), rel=1e-14)

    def test_holds_half_a_matrix(self):
        n = 300
        form = tridiagonal_form(random_symmetric(np.random.default_rng(0), n))
        assert form_doubles(form) <= n * (n - 1) // 2 + FORM_EXTRA_PER_ROW * n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 300, 301])
    def test_splits_a_centrosymmetric_matrix(self, n):
        A = _centrosymmetric(random_symmetric(np.random.default_rng(n), n))
        form = tridiagonal_form(A)
        assert form.split and form.e[n - n // 2 - 1] == 0.0  # the seam
        T = np.diag(form.d) + np.diag(form.e, 1) + np.diag(form.e, -1)
        X = np.random.default_rng(1).standard_normal((n, 4))
        # Q^T A X = T Q^T X
        assert np.max(np.abs(form.transpose_apply(A @ X) - T @ form.transpose_apply(X))) <= 1e-13 * n
        assert np.max(np.abs(form.spectrum - np.linalg.eigvalsh(A))) <= 1e-13 * n
        assert form.norm == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(A)))), rel=1e-14)

    def test_split_form_holds_a_quarter_of_a_matrix(self):
        n = 300
        form = tridiagonal_form(_centrosymmetric(random_symmetric(np.random.default_rng(0), n)))
        assert form.split
        assert form_doubles(form) <= n * n // 4 + FORM_EXTRA_PER_ROW * n


class TestLowrankUpdateNorm:
    def test_no_rows_gives_the_norm_of_the_matrix(self):
        A = random_psd(np.random.default_rng(0), 300)
        form = tridiagonal_form(A)
        got = lowrank_update_norm(form, np.array([], dtype=int), np.zeros((0, 0)))
        assert got == form.norm
        assert got == pytest.approx(float(np.max(np.linalg.eigvalsh(A))), rel=1e-13)

    def test_zero_block_gives_the_norm_of_the_matrix(self):
        A = random_psd(np.random.default_rng(1), 40)
        form = tridiagonal_form(A)
        assert lowrank_update_norm(form, np.array([3, 9]), np.zeros((2, 2))) == form.norm

    @pytest.mark.parametrize("block", [[[2.5]], [[-0.7]], [[1e-12]]], ids=["up", "down", "tiny"])
    def test_rank_one(self, block):
        rng = np.random.default_rng(2)
        A = random_psd(rng, 300)
        rows, B = np.array([17]), np.array(block)
        got = lowrank_update_norm(tridiagonal_form(A), rows, B)
        assert type(got) is float  # CSVs print repr(), which marks numpy scalars
        assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    def test_indefinite_block(self):
        rng = np.random.default_rng(3)
        A = random_psd(rng, 300)
        rows = np.sort(rng.choice(300, 12, replace=False))
        B = 3.0 * random_symmetric(rng, 12)
        assert np.min(np.linalg.eigvalsh(B)) < 0 < np.max(np.linalg.eigvalsh(B))
        got = lowrank_update_norm(tridiagonal_form(A), rows, B)
        assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    @pytest.mark.parametrize("block", [[[5.0]], [[-1.0]], [[2.0]]])
    def test_one_by_one(self, block):
        form = tridiagonal_form(np.array([[2.0]]))
        got = lowrank_update_norm(form, np.array([0]), np.array(block))
        assert got == pytest.approx(abs(block[0][0] - 2.0), rel=1e-13, abs=1e-15)

    def test_norm_on_an_eigenvalue_the_update_leaves(self):
        # The rows touch only the small diagonal entries, so lambda_min(E) is
        # -40 itself, an eigenvalue of -T: the search ends on a singular
        # shift of T.
        A = np.diag(np.arange(1.0, 41.0))
        rows = np.array([0, 1, 2])
        B = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, -3.0]])
        got = lowrank_update_norm(tridiagonal_form(A), rows, B)
        assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    def test_positive_update_can_set_the_norm(self):
        # The update lifts lambda_max(E) above |lambda_min(E)|, so the second
        # bisection decides the norm.
        rng = np.random.default_rng(4)
        A = random_psd(rng, 300)
        rows = np.array([5, 60, 200])
        B = np.diag([40.0, 1.0, -2.0])
        got = lowrank_update_norm(tridiagonal_form(A), rows, B)
        assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    def test_singular_block(self):
        rng = np.random.default_rng(5)
        A = random_psd(rng, 300)
        rows = np.sort(rng.choice(300, 8, replace=False))
        u = rng.standard_normal((8, 2))
        form = tridiagonal_form(A)
        # Rank 2 of 8 (zero eigenvalues in rounding), then exact zeros.
        for B in (u @ u.T, np.diag([2.0, 0.0, -1.0, 0.0, 0.0, 3.0, 0.0, 0.0])):
            got = lowrank_update_norm(form, rows, B)
            assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    @pytest.mark.parametrize("n", [300, 600])
    @pytest.mark.parametrize("gap", [1e-4, 1e-7])
    def test_planted_clustered_top(self, n, gap):
        rng = np.random.default_rng(n)
        A = _planted_top(rng, n, 3.0, 8, gap, False)
        form = tridiagonal_form(A)
        for r in (1, 5, 40):
            rows = np.sort(rng.choice(n, r, replace=False))
            B = _sample_block(rng, A, rows)
            got = lowrank_update_norm(form, rows, B)
            assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)

    def test_permuted_matrix_maps_rows_through_the_permutation(self):
        # The shuffled truth is A[perm][:, perm]; the form of A serves it
        # with the kept rows mapped to perm[rows].
        rng = np.random.default_rng(6)
        C = discretize(SquaredExponential(0.003), build_grid(1, 300)).entries
        perm = rng.permutation(300)
        shuffled = C[np.ix_(perm, perm)]
        rows = np.sort(rng.choice(300, 20, replace=False))
        B = _sample_block(rng, shuffled, rows)
        got = lowrank_update_norm(tridiagonal_form(C), perm[rows], B)
        assert got == pytest.approx(_dense_update_norm(shuffled, rows, B), rel=1e-13)

    def test_newton_steps_cut_the_counts(self, monkeypatch):
        # Bisection alone takes about 50 counts (one tridiagonal solve each)
        # to reach the last bit from the interlacing bracket.
        rng = np.random.default_rng(9)
        A = _planted_top(rng, 600, 3.0, 8, 1e-5, False)
        form = tridiagonal_form(A)
        solves = []
        real = scipy.linalg.lapack.dgtsv

        def counted(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counted)
        for _ in range(5):
            rows = np.sort(rng.choice(600, 20, replace=False))
            lowrank_update_norm(form, rows, _sample_block(rng, A, rows))
        assert len(solves) <= 5 * 30

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_refuses_non_finite_block(self, bad):
        form = tridiagonal_form(random_psd(np.random.default_rng(7), 30))
        B = np.eye(3)
        B[1, 1] = bad
        with pytest.raises(UsageError, match="non-finite"):
            lowrank_update_norm(form, np.array([0, 4, 9]), B)

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_leaves_no_reference_cycle(self, n):
        # A call frees all it made by reference counting and leaves no
        # cycle for the collector, at any size of the form.
        form = tridiagonal_form(random_psd(np.random.default_rng(n), n))
        rows = np.arange(min(n, 3))
        block = np.diag(np.arange(1.0, rows.size + 1.0))
        gc.collect()
        gc.disable()
        try:
            lowrank_update_norm(form, rows, block)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("rows,block,message", [
        ([0, 4], np.eye(3), r"block of shape \(3, 3\) does not match 2 rows"),
        ([0, 0], np.eye(2), "rows must be distinct indices below 30"),
        ([0, 30], np.eye(2), "rows must be distinct indices below 30"),
        ([0, 4], np.array([[1.0, 2.0], [0.0, 1.0]]),
         r"block is not symmetric: relative asymmetry 1\.000e\+00"),
    ], ids=["shape", "repeated", "out-of-range", "asymmetric"])
    def test_refuses_malformed_input(self, rows, block, message):
        form = tridiagonal_form(random_psd(np.random.default_rng(8), 30))
        with pytest.raises(UsageError, match=message):
            lowrank_update_norm(form, np.array(rows), block)


@given(
    n=st.integers(9, 120),
    cluster=st.integers(1, 8),
    gap=st.floats(1e-9, 1e-2),
    top=st.sampled_from((-3.0, 1.0, 40.0)),
    r=st.integers(1, 16),
    kind=st.sampled_from(("sample", "indefinite", "psd", "singular")),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowrank_update_norm_matches_dense(n, cluster, gap, top, r, kind, seed):
    rng = np.random.default_rng(seed)
    A = _planted_top(rng, n, top, cluster, gap, False)
    rows = rng.choice(n, min(r, n), replace=False)
    r = rows.size
    if kind == "sample":
        B = _sample_block(rng, A, rows, noise=0.3 * abs(top))
    elif kind == "indefinite":
        B = abs(top) * random_symmetric(rng, r)
    else:
        u = rng.standard_normal((r, r if kind == "psd" else max(r // 2, 1)))
        B = abs(top) * (u @ u.T) / r
    got = lowrank_update_norm(tridiagonal_form(A), rows, B)
    assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)


@given(
    n=st.integers(9, 120),
    cluster=st.integers(2, 8),
    gap=st.floats(1e-9, 1e-2),
    top=st.sampled_from((-3.0, 1.0, 40.0)),
    r=st.integers(1, 16),
    kind=st.sampled_from(("sample", "indefinite", "psd", "singular")),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowrank_update_norm_matches_dense_on_a_split_form(n, cluster, gap, top, r, kind, seed):
    # The planted top's members lie in both blocks of the split form.
    rng = np.random.default_rng(seed)
    A = _planted_top(rng, n, top, cluster, gap, False, mirrored=True)
    form = tridiagonal_form(A)
    assert form.split
    rows = rng.choice(n, min(r, n), replace=False)
    r = rows.size
    if kind == "sample":
        B = _sample_block(rng, A, rows, noise=0.3 * abs(top))
    elif kind == "indefinite":
        B = abs(top) * random_symmetric(rng, r)
    else:
        u = rng.standard_normal((r, r if kind == "psd" else max(r // 2, 1)))
        B = abs(top) * (u @ u.T) / r
    got = lowrank_update_norm(form, rows, B)
    assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)


@functools.cache
def _gate_form():
    return tridiagonal_form(random_psd(np.random.default_rng(9), 120))


# entry point -> (n, call on the matrix under test, the matrix's name in the
# refusals, the refusal of a non-square matrix)
_GATED = {
    "spectral_norm-50": (50, spectral_norm, "matrix", "matrix must be square"),
    "spectral_norm-400": (400, spectral_norm, "matrix", "matrix must be square"),
    "tridiagonal_form": (50, lambda A: tridiagonal_form(A).spectrum, "matrix",
                         "matrix must be square"),
    "lowrank_update_norm": (50, lambda B: lowrank_update_norm(
        _gate_form(), np.arange(0, 100, 2), B), "block", "block of shape"),
    "kl_gaussian": (50, lambda S: kl_gaussian(S, np.eye(50)), "S1",
                    "need square matrices of equal size"),
    "kl_gaussian_both": (50, lambda S: kl_gaussian_both(2.0 * np.eye(50), S), "S2",
                         "need square matrices of equal size"),
}


@pytest.mark.parametrize("fault", ["asymmetric", "nan", "inf", "-inf", "non-square"])
@pytest.mark.parametrize("entry", list(_GATED))
def test_matrix_gate_refuses_bad_input(entry, fault):
    n, call, name, non_square = _GATED[entry]
    A = random_psd(np.random.default_rng(n), n, jitter=0.3)
    message = re.escape("matrix has a non-finite entry (nan or inf)")
    if fault == "asymmetric":
        A[1, 2] += 1e-9 * np.max(np.abs(A))
        message = rf"^{name} is not symmetric: relative asymmetry 1\.000e-09$"
    elif fault == "non-square":
        A, message = A[:, 1:], re.escape(non_square)
    else:
        A[1, 2] = A[2, 1] = float(fault)
    with pytest.raises(UsageError, match=message):
        call(A)


@pytest.mark.parametrize("entry", list(_GATED))
def test_matrix_gate_folds_last_bit_asymmetry(entry):
    n, call, _, _ = _GATED[entry]
    A = random_psd(np.random.default_rng(n), n, jitter=0.3)
    upper = np.triu_indices(n, 1)
    A[upper] = np.nextafter(A[upper], np.inf)
    folded = (A + A.T) / 2.0
    assert np.array_equal(call(A), call(folded))
    if entry == "tridiagonal_form":
        assert np.max(np.abs(call(A) - np.linalg.eigvalsh(folded))) <= 1e-13 * n


@pytest.mark.parametrize("n", [50, 51])
def test_centrosymmetry_gate_folds_last_bit_asymmetry(n):
    # The split takes the gate and bound of the symmetry check: a last-bit
    # centro-asymmetry is folded in, a larger one keeps the one-block form.
    A = _centrosymmetric(random_psd(np.random.default_rng(n), n, jitter=0.3))
    m = n // 2
    A[:m, :m] = np.nextafter(A[:m, :m], np.inf)  # still exactly symmetric
    folded = _centrosymmetric(A)
    form = tridiagonal_form(A)
    assert form.split
    assert np.array_equal(form.spectrum, tridiagonal_form(folded).spectrum)
    assert np.max(np.abs(form.spectrum - np.linalg.eigvalsh(folded))) <= 1e-13 * n
    A = _centrosymmetric(random_psd(np.random.default_rng(n), n, jitter=0.3))
    A[1, 2] = A[2, 1] = A[1, 2] + 1e-9 * np.max(np.abs(A))
    form = tridiagonal_form(A)
    assert not form.split and form.e[n - m - 1] != 0.0
    assert np.max(np.abs(form.spectrum - np.linalg.eigvalsh(A))) <= 1e-13 * n
    rows = np.array([1, 7, n - 3])
    B = _sample_block(np.random.default_rng(0), A, rows)
    got = lowrank_update_norm(form, rows, B)
    assert got == pytest.approx(_dense_update_norm(A, rows, B), rel=1e-13)


class TestOperatorQuantities:
    def test_identity_matrix(self):
        n = 24
        q = operator_quantities(CovMatrix(entries=np.eye(n)))
        assert q.trace_op == pytest.approx(1.0)
        assert q.op_norm == pytest.approx(1 / n)
        assert q.r_eff == pytest.approx(n)

    def test_scale_invariance_of_r_eff(self):
        C = discretize(SquaredExponential(0.1), build_grid(1, 120))
        q1 = operator_quantities(C)
        q4 = operator_quantities(CovMatrix(entries=4.0 * C.entries))
        assert q4.r_eff == pytest.approx(q1.r_eff, rel=1e-12)
        assert q4.op_norm == pytest.approx(4.0 * q1.op_norm, rel=1e-12)

    def test_se_effective_dimension_tracks_inverse_lengthscale(self):
        lam = 0.01
        C = discretize(SquaredExponential(lam), build_grid(1, 1250))
        q = operator_quantities(C, tol=1e-8)
        assert q.r_eff * lam == pytest.approx(1 / math.sqrt(2 * math.pi), rel=0.1)


class TestGamma1:
    def test_identity_is_one_for_all_q(self):
        C = CovMatrix(entries=np.eye(30))
        for q in (0.25, 0.5, 1.0):
            assert gamma1(C, q) == pytest.approx(1.0, rel=1e-12)

    def test_nonincreasing_in_q_and_at_least_one(self):
        rng = np.random.default_rng(21)
        for lam in (0.03, 0.1, 0.3):
            C = discretize(SquaredExponential(lam), build_grid(1, 80))
            vals = [gamma1(C, q) for q in (0.25, 0.5, 1.0)]
            assert vals[0] >= vals[1] >= vals[2] >= 1.0 - 1e-9
        # also for a generic PSD matrix, not just kernels
        C = CovMatrix(entries=random_psd(rng, 40, jitter=0.4))
        assert gamma1(C, 0.5) >= gamma1(C, 1.0) >= 1.0 - 1e-9

    def test_given_operator_norm_gives_the_same_value(self):
        C = discretize(SquaredExponential(0.05), build_grid(1, 300))
        op_norm = operator_quantities(C).op_norm
        for q in (0.25, 0.5, 1.0):
            assert gamma1(C, q, op_norm=op_norm) == gamma1(C, q)

    def test_cov_matrix_entries_are_not_checked_again(self, monkeypatch):
        C = discretize(SquaredExponential(0.05), build_grid(1, 300))
        calls = []
        real = covlab.diagnostics._largest_gap
        monkeypatch.setattr(covlab.diagnostics, "_largest_gap",
                            lambda A, B: calls.append(A.shape) or real(A, B))
        gamma1(C, 0.5)
        assert calls == []

    def test_rejects_q_outside_unit_interval(self):
        C = CovMatrix(entries=np.eye(4))
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(UsageError):
                gamma1(C, bad)


class TestGamma2:
    def test_single_point_grid_mean_zero(self):
        fac = cholesky_psd(CovMatrix(entries=np.array([[1.0]])))
        est, se = gamma2(fac, M_mc=4000, seed=0)
        assert abs(est) <= 3 * se

    def test_max_of_iid_normals_matches_oracle(self):
        n = 16
        fac = cholesky_psd(CovMatrix(entries=np.eye(n)))
        est, se = gamma2(fac, M_mc=20_000, seed=1)
        draws = np.random.default_rng(2).standard_normal((200_000, n))
        oracle = float(draws.max(axis=1).mean())
        assert abs(est - oracle) <= 4 * se
        assert est <= math.sqrt(2 * math.log(n))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        C = random_psd(rng, 6, jitter=0.3)
        f1 = cholesky_psd(CovMatrix(entries=C))
        f4 = cholesky_psd(CovMatrix(entries=4.0 * C))
        e1, _ = gamma2(f1, M_mc=5000, seed=3)
        e4, _ = gamma2(f4, M_mc=5000, seed=3)
        assert e4 == pytest.approx(e1, rel=1e-12)


class TestNuSequences:
    def test_normalization_at_one(self):
        for nu in (
            NuSequence.se_d1(),
            NuSequence.exponential(),
            NuSequence.table([1.0, 0.5, 0.1]),
        ):
            assert nu.nu(1) == pytest.approx(1.0)

    def test_se_closed_form_values(self):
        nu = NuSequence.se_d1()
        for m in (2, 3, 5):
            want = math.erfc(m / math.sqrt(2)) / math.erfc(1 / math.sqrt(2))
            assert nu.nu(m) == pytest.approx(want, rel=1e-12)

    def test_exponential_closed_form_values(self):
        nu = NuSequence.exponential()
        assert nu.nu(3) == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert nu.nu(6) == pytest.approx(math.exp(-5.0), rel=1e-12)

    def test_numeric_matches_se_closed_form(self):
        nu = NuSequence.numeric(SquaredExponential(1.0), 1)
        ref = NuSequence.se_d1()
        for m in range(1, 7):
            assert nu.nu(m) == pytest.approx(ref.nu(m), abs=1e-8)

    def test_numeric_matches_exponential_closed_form(self):
        nu = NuSequence.numeric(Matern(1.0, smoothness=0.5), 1)
        ref = NuSequence.exponential()
        for m in range(1, 7):
            assert nu.nu(m) == pytest.approx(ref.nu(m), abs=1e-8)

    def test_table_validation(self):
        with pytest.raises(UsageError):
            NuSequence.table([1.2, 0.5])  # first value must be <= 1
        with pytest.raises(UsageError):
            NuSequence.table([1.0, -0.1])
        with pytest.raises(UsageError):
            NuSequence.table([])

    def test_rejects_bad_m(self):
        nu = NuSequence.se_d1()
        with pytest.raises(UsageError):
            nu.nu(0)


class TestTruncationPair:
    def test_m_star_worked_examples(self):
        assert m_star(NuSequence.table([math.exp(-m) for m in range(1, 60)]), 35, 1) == 2
        assert m_star(NuSequence.table([1 / m for m in range(1, 200)]), 100, 1) == 5
        assert m_star(NuSequence.se_d1(), 1, 1) == 1
        assert m_star(NuSequence.exponential(), 1, 3) == 1

    def test_eps_star_worked_examples(self):
        nu = NuSequence.table([1 / m for m in range(1, 200)])
        assert eps_star(nu, 100, 1) == pytest.approx(0.2, rel=1e-12)
        assert eps_star(NuSequence.se_d1(), 1, 1) == pytest.approx(1.0)

    def test_m_star_nondecreasing_in_N(self):
        nu = NuSequence.table([m ** -0.75 for m in range(1, 400)])
        values = [m_star(nu, N, 2) for N in (1, 3, 10, 30, 100, 1000)]
        assert values == sorted(values)

    def test_eps_star_matches_enumeration(self):
        for d in (1, 2):
            for N in (1, 7, 50, 400):
                nu = NuSequence.table([m ** -1.5 for m in range(1, 500)])
                cap = max(N, 4)
                enum = max(
                    min(nu.nu(m), math.sqrt(m**d / N))
                    for m in range(1, cap + 1)
                )
                assert eps_star(nu, N, d) == pytest.approx(enum, rel=1e-12)


class TestKlGaussian:
    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(17)
        S = random_psd(rng, 4, jitter=0.5)
        assert kl_gaussian(S, S) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        got = kl_gaussian(np.array([[1.0]]), np.array([[2.0]]))
        assert got == pytest.approx(0.5 * (0.5 - 1 + math.log(2)), rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(19)
        S1 = random_psd(rng, 3, jitter=0.3)
        S2 = random_psd(rng, 3, jitter=0.3)
        inv1, inv2 = np.linalg.inv(S1), np.linalg.inv(S2)
        log_ratio = math.log(np.linalg.det(S1) / np.linalg.det(S2))
        want = 0.5 * (np.trace(inv2 @ S1) - 3 - log_ratio)
        want_reverse = 0.5 * (np.trace(inv1 @ S2) - 3 + log_ratio)
        assert kl_gaussian(S1, S2) == pytest.approx(want, rel=1e-10)
        assert kl_gaussian_both(S1, S2) == pytest.approx((want, want_reverse), rel=1e-10)

    @pytest.mark.parametrize("n", [5, 50, 256])
    @pytest.mark.parametrize("nu", [1e-6, 1e-3, 0.5])
    def test_rank_one_closed_form(self, nu, n):
        # S1 = S2 + c u u^T has one relative eigenvalue 1 + nu, nu = c u^T S2^-1 u,
        # and n - 1 equal to 1; a trace formula would cancel n against ~n.
        rng = np.random.default_rng(n)
        S2 = random_psd(rng, n, jitter=0.5)
        u = rng.standard_normal(n)
        c = nu / float(u @ np.linalg.solve(S2, u))
        S1 = S2 + c * np.outer(u, u)
        forward, reverse = kl_gaussian_both(S1, S2)
        assert forward == pytest.approx(0.5 * (nu - math.log1p(nu)), rel=1e-8)
        assert reverse == pytest.approx(0.5 * (math.log1p(nu) - nu / (1.0 + nu)), rel=1e-8)
        assert kl_gaussian(S1, S2) == forward

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            S1 = random_psd(rng, 5, jitter=0.2)
            S2 = random_psd(rng, 5, jitter=0.2)
            assert kl_gaussian(S1, S2) >= 0.0

    def test_rejects_singular_second_argument(self):
        with pytest.raises((UsageError, Exception)):
            kl_gaussian(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("S1, S2, message", [
        (np.eye(2), np.eye(3), "need square matrices of equal size"),
        (np.ones(3), np.ones(3), "need square matrices of equal size"),
        (np.array([[1.0, 0.1], [0.0, 1.0]]), np.eye(2), "S1 is not symmetric"),
        (np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]), "S2 is not symmetric"),
        # below the floor lambda_min > 1e-12 lambda_max, diagonal and rotated
        (np.eye(2), np.diag([1.0, 5e-13]), "S2 must be positive definite"),
        (np.eye(2), np.array([[0.5, 0.5], [0.5, 0.5]]) + 1e-14 * np.eye(2),
         "S2 must be positive definite"),
        (np.diag([1.0, -1e-3]), np.eye(2), "S1 must be positive semi-definite"),
        (np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), "S1 must be positive semi-definite"),
        (np.zeros((0, 0)), np.zeros((0, 0)), "needs non-empty matrices"),
    ])
    def test_refusals_name_the_fault(self, S1, S2, message):
        for kl in (kl_gaussian, kl_gaussian_both):
            with pytest.raises(UsageError, match=message):
                kl(S1, S2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", [0, 1], ids=["S1", "S2"])
    def test_refuses_non_finite_entries(self, which, bad):
        pair = [random_psd(np.random.default_rng(22), 4, jitter=0.3) for _ in range(2)]
        pair[which][1, 2] = pair[which][2, 1] = bad
        for kl in (kl_gaussian, kl_gaussian_both):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(UsageError, match=r"non-finite entry \(nan or inf\)"):
                    kl(*pair)

    def test_singular_first_argument(self):
        # Forward KL is +inf; the reverse needs S1 to clear the floor S2 meets.
        S2 = np.array([[2.0, 0.5], [0.5, 1.0]])
        for S1 in (np.diag([1.0, 0.0]), np.ones((2, 2))):
            assert kl_gaussian(S1, S2) == math.inf
            with pytest.raises(UsageError, match="S1 must be positive definite"):
                kl_gaussian_both(S1, S2)
        tiny = np.diag([1.0, 1e-14])
        assert math.isfinite(kl_gaussian(tiny, S2))
        with pytest.raises(UsageError, match="S1 must be positive definite"):
            kl_gaussian_both(tiny, S2)

    def test_directions_swap(self):
        rng = np.random.default_rng(21)
        S1 = random_psd(rng, 6, jitter=0.2)
        S2 = random_psd(rng, 6, jitter=0.2)
        forward, reverse = kl_gaussian_both(S1, S2)
        assert kl_gaussian_both(S2, S1) == pytest.approx((reverse, forward), rel=1e-10)
