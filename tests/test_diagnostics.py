"""Spectral norms, operator summaries, sparsity functionals, and tail rules."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

import covlab.diagnostics

from covlab import (
    CovMatrix,
    DiagnosticReport,
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
    m_star,
    operator_quantities,
    rel_error,
    spectral_norm,
)
from helpers import random_psd, random_symmetric


class TestSpectralNorm:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 180))
            A = random_symmetric(rng, n)
            dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
            got = spectral_norm(A, tol=1e-9, method="lanczos")
            assert abs(got - dense) <= 1e-8 * dense

    def test_methods_agree_on_large_kernel_matrix(self):
        C = discretize(SquaredExponential(0.02), build_grid(1, 300))
        a = spectral_norm(C.entries, tol=1e-9, method="dense")
        b = spectral_norm(C.entries, tol=1e-9, method="lanczos")
        assert a == pytest.approx(b, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((5, 5))) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        A = random_symmetric(rng, 400)
        assert spectral_norm(A, tol=1e-10) == spectral_norm(A, tol=1e-10)

    def test_negative_extreme_eigenvalue_is_captured(self):
        A = np.diag(np.concatenate([np.linspace(0.0, 1.0, 50), [-3.0]]))
        assert spectral_norm(A, method="lanczos") == pytest.approx(3.0, rel=1e-9)

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

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_top_eigenvector_orthogonal_to_ones(self, tol):
        # A start vector of exact ones has no component along u, so the
        # iteration would never see the top eigenvalue 5.1 and return 1.1.
        n = 400
        u = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) / math.sqrt(n)
        s = np.ones(n) / math.sqrt(n)
        A = 5.0 * np.outer(u, u) + np.outer(s, s) + 0.1 * np.eye(n)
        assert spectral_norm(A, tol=tol, method="lanczos") == pytest.approx(5.1, rel=1e-8)

    @pytest.mark.parametrize(
        "A", [np.array([[-2.5]]), np.array([[1.0, 3.0], [3.0, -1.0]])], ids=["1x1", "2x2"]
    )
    def test_tiny_matrices_on_the_iterative_path(self, A):
        dense = spectral_norm(A, method="dense")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_norm(A, method="lanczos")
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
        got = spectral_norm(A, tol=1e-9, method="lanczos")
        assert got == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(A)))), rel=1e-9)
        assert len(matvecs) <= n

    def test_dense_fallback_when_arpack_does_not_converge(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(covlab.diagnostics, "eigsh", no_convergence)
        A = random_symmetric(np.random.default_rng(5), 300)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        assert spectral_norm(A, method="lanczos") == dense
        assert spectral_norm(A, method="auto") == dense


def _planted_top(rng, n, top, cluster, gap, orthogonal_to_ones, bulk=0.5):
    """Symmetric n x n matrix whose `cluster` largest-magnitude eigenvalues
    lie within relative `gap` of `top`; the rest lie in (-bulk, bulk) * |top|.

    With orthogonal_to_ones the top eigenvectors are orthogonal to the ones
    vector, and ones itself is an eigenvector at 0.9 * top.
    """
    G = rng.standard_normal((n, cluster + 1))
    if orthogonal_to_ones:
        G[:, 0] = 1.0
    V, _ = np.linalg.qr(G)
    values = top * (1.0 - gap * np.arange(cluster) / max(cluster - 1, 1))
    V, values = (V, np.append(0.9 * top, values)) if orthogonal_to_ones else (V[:, 1:], values)
    # The bulk is a diagonal matrix D projected off the planted directions.
    D = rng.uniform(-bulk, bulk, n) * abs(top)
    DV = D[:, None] * V
    A = np.diag(D) - V @ DV.T - DV @ V.T + V @ (V.T @ DV) @ V.T + (V * values) @ V.T
    return (A + A.T) / 2.0


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


class TestOperatorQuantities:
    def test_identity_matrix(self):
        n = 24
        q = operator_quantities(CovMatrix(entries=np.eye(n), grid_h=1 / n))
        assert q.trace_op == pytest.approx(1.0)
        assert q.op_norm == pytest.approx(1 / n)
        assert q.r_eff == pytest.approx(n)

    def test_scale_invariance_of_r_eff(self):
        C = discretize(SquaredExponential(0.1), build_grid(1, 120))
        q1 = operator_quantities(C)
        q4 = operator_quantities(CovMatrix(entries=4.0 * C.entries, grid_h=C.grid_h))
        assert q4.r_eff == pytest.approx(q1.r_eff, rel=1e-12)
        assert q4.op_norm == pytest.approx(4.0 * q1.op_norm, rel=1e-12)

    def test_se_effective_dimension_tracks_inverse_lengthscale(self):
        lam = 0.01
        C = discretize(SquaredExponential(lam), build_grid(1, 1250))
        q = operator_quantities(C, tol=1e-8)
        assert q.r_eff * lam == pytest.approx(1 / math.sqrt(2 * math.pi), rel=0.1)


class TestGamma1:
    def test_identity_is_one_for_all_q(self):
        C = CovMatrix(entries=np.eye(30), grid_h=1 / 30)
        for q in (0.25, 0.5, 1.0):
            assert gamma1(C, q) == pytest.approx(1.0, rel=1e-12)

    def test_nonincreasing_in_q_and_at_least_one(self):
        rng = np.random.default_rng(21)
        for lam in (0.03, 0.1, 0.3):
            C = discretize(SquaredExponential(lam), build_grid(1, 80))
            vals = [gamma1(C, q) for q in (0.25, 0.5, 1.0)]
            assert vals[0] >= vals[1] >= vals[2] >= 1.0 - 1e-9
        # also for a generic PSD matrix, not just kernels
        C = CovMatrix(entries=random_psd(rng, 40, jitter=0.4), grid_h=1 / 40)
        assert gamma1(C, 0.5) >= gamma1(C, 1.0) >= 1.0 - 1e-9

    def test_given_operator_norm_gives_the_same_value(self):
        C = discretize(SquaredExponential(0.05), build_grid(1, 300))
        op_norm = operator_quantities(C).op_norm
        for q in (0.25, 0.5, 1.0):
            assert gamma1(C, q, op_norm=op_norm) == gamma1(C, q)

    def test_rejects_q_outside_unit_interval(self):
        C = CovMatrix(entries=np.eye(4), grid_h=0.25)
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(UsageError):
                gamma1(C, bad)


class TestGamma2:
    def test_single_point_grid_mean_zero(self):
        from covlab import Grid

        fac = cholesky_psd(CovMatrix(entries=np.array([[1.0]]), grid_h=1.0))
        one_point = Grid(d=1, L=1, points=np.array([[0.0]]))
        est, se = gamma2(fac, one_point, M_mc=4000, seed=0)
        assert abs(est) <= 3 * se

    def test_max_of_iid_normals_matches_oracle(self):
        n = 16
        fac = cholesky_psd(CovMatrix(entries=np.eye(n), grid_h=1 / n))
        est, se = gamma2(fac, build_grid(1, n), M_mc=20_000, seed=1)
        draws = np.random.default_rng(2).standard_normal((200_000, n))
        oracle = float(draws.max(axis=1).mean())
        assert abs(est - oracle) <= 4 * se
        assert est <= math.sqrt(2 * math.log(n))

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        C = random_psd(rng, 6, jitter=0.3)
        g = build_grid(1, 6)
        f1 = cholesky_psd(CovMatrix(entries=C, grid_h=g.h))
        f4 = cholesky_psd(CovMatrix(entries=4.0 * C, grid_h=g.h))
        e1, _ = gamma2(f1, g, M_mc=5000, seed=3)
        e4, _ = gamma2(f4, g, M_mc=5000, seed=3)
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
        inv2 = np.linalg.inv(S2)
        want = 0.5 * (
            np.trace(inv2 @ S1)
            - 3
            - math.log(np.linalg.det(S1) / np.linalg.det(S2))
        )
        assert kl_gaussian(S1, S2) == pytest.approx(want, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            S1 = random_psd(rng, 5, jitter=0.2)
            S2 = random_psd(rng, 5, jitter=0.2)
            assert kl_gaussian(S1, S2) >= 0.0

    def test_rejects_singular_second_argument(self):
        with pytest.raises((UsageError, Exception)):
            kl_gaussian(np.eye(2), np.zeros((2, 2)))


class TestRelError:
    def test_exact_cases(self):
        C = discretize(SquaredExponential(0.2), build_grid(1, 30))
        assert rel_error(C, C) == 0.0
        zero = CovMatrix(entries=np.zeros_like(C.entries), grid_h=C.grid_h)
        assert rel_error(zero, C) == pytest.approx(1.0, rel=1e-9)
        double = CovMatrix(entries=2.0 * C.entries, grid_h=C.grid_h)
        assert rel_error(double, C) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_zero_truth(self):
        zero = CovMatrix(entries=np.zeros((3, 3)), grid_h=1 / 3)
        with pytest.raises(UsageError):
            rel_error(zero, zero)


class TestDiagnosticReport:
    def test_format_lists_every_field(self):
        rep = DiagnosticReport(
            trace_op=1.0,
            op_norm=0.25,
            r_eff=4.0,
            gamma1={1.0: 1.5, 0.5: 2.5},
            gamma2=1.1,
            gamma2_se=0.01,
            m_star=3,
            eps_star=0.2,
        )
        text = rep.format()
        for key in (
            "trace_op=",
            "op_norm=",
            "r_eff=",
            "gamma1.q1=",
            "gamma1.q0.5=",
            "gamma2=",
            "gamma2_se=",
            "m_star=",
            "eps_star=",
        ):
            assert key in text
