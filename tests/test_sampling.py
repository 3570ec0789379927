"""Cholesky factorization, seeded path drawing, and the sample covariance."""

import numpy as np
import pytest

from covlab import (
    CovMatrix,
    NumericError,
    SampleSet,
    UsageError,
    build_grid,
    cholesky_psd,
    discretize,
    draw_paths,
    sample_cov,
    SquaredExponential,
)
from helpers import random_psd


def _wrap(entries: np.ndarray, grid_h: float = 0.1) -> CovMatrix:
    return CovMatrix(entries=entries, grid_h=grid_h)


class TestCholeskyPsd:
    def test_reconstructs_positive_definite_input(self):
        rng = np.random.default_rng(3)
        C = _wrap(random_psd(rng, 20, jitter=0.5))
        fac = cholesky_psd(C)
        np.testing.assert_allclose(fac.lower @ fac.lower.T, C.entries, atol=1e-12)
        assert fac.jitter_used == 0.0
        assert np.all(np.triu(fac.lower, 1) == 0.0)

    def test_jitters_singular_psd_within_budget(self):
        v = np.array([[1.0, 2.0, 3.0]])
        C = _wrap(v.T @ v)  # rank one, exactly singular
        fac = cholesky_psd(C)
        assert 0.0 <= fac.jitter_used <= 1e-6 * np.max(np.diag(C.entries))
        np.testing.assert_allclose(
            fac.lower @ fac.lower.T, C.entries, atol=1e-5
        )

    def test_rejects_indefinite_matrix(self):
        C = _wrap(np.diag([1.0, -0.5]))
        with pytest.raises(NumericError):
            cholesky_psd(C)

    def test_se_discretization_factors(self):
        g = build_grid(1, 64)
        C = discretize(SquaredExponential(0.05), g)
        fac = cholesky_psd(C)
        np.testing.assert_allclose(fac.lower @ fac.lower.T, C.entries, atol=1e-7)
        assert fac.grid_h == C.grid_h


class TestDrawPaths:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        fac = cholesky_psd(_wrap(random_psd(rng, 8, jitter=0.2)))
        a = draw_paths(fac, 4, 99)
        b = draw_paths(fac, 4, 99)
        np.testing.assert_array_equal(a.paths, b.paths)

    def test_seed_changes_draws(self):
        rng = np.random.default_rng(5)
        fac = cholesky_psd(_wrap(random_psd(rng, 8, jitter=0.2)))
        a = draw_paths(fac, 4, 1)
        b = draw_paths(fac, 4, 2)
        assert not np.array_equal(a.paths, b.paths)

    def test_rows_come_from_per_path_substreams(self):
        # Growing N must extend the sample, not reshuffle it.
        rng = np.random.default_rng(6)
        fac = cholesky_psd(_wrap(random_psd(rng, 10, jitter=0.2)))
        small = draw_paths(fac, 3, 42)
        big = draw_paths(fac, 7, 42)
        np.testing.assert_array_equal(big.paths[:3], small.paths)

    def test_marginal_covariance_converges(self):
        rng = np.random.default_rng(8)
        C = random_psd(rng, 5, jitter=0.3)
        fac = cholesky_psd(_wrap(C))
        S = draw_paths(fac, 10_000, 7)
        Chat = sample_cov(S)
        rel = np.linalg.norm(Chat.entries - C, 2) / np.linalg.norm(C, 2)
        assert rel <= 0.1

    def test_rejects_bad_counts(self):
        rng = np.random.default_rng(9)
        fac = cholesky_psd(_wrap(random_psd(rng, 4, jitter=0.2)))
        with pytest.raises(UsageError):
            draw_paths(fac, 0, 1)


class TestSampleCov:
    def test_single_path_outer_product(self):
        S = SampleSet(paths=np.array([[1.0, 2.0]]), grid_h=0.5)
        np.testing.assert_array_equal(
            sample_cov(S).entries, [[1.0, 2.0], [2.0, 4.0]]
        )

    def test_zero_paths_give_zero_matrix(self):
        S = SampleSet(paths=np.zeros((3, 4)), grid_h=0.25)
        np.testing.assert_array_equal(sample_cov(S).entries, np.zeros((4, 4)))

    def test_no_mean_centering(self):
        # Constant paths have second moment c^2, not variance 0.
        S = SampleSet(paths=np.full((6, 3), 2.0), grid_h=1 / 3)
        np.testing.assert_allclose(sample_cov(S).entries, 4.0)

    def test_output_is_exactly_symmetric_psd(self):
        rng = np.random.default_rng(10)
        S = SampleSet(paths=rng.standard_normal((7, 12)), grid_h=1 / 12)
        Chat = sample_cov(S)
        np.testing.assert_array_equal(Chat.entries, Chat.entries.T)
        assert np.linalg.eigvalsh(Chat.entries).min() >= -1e-12

    @pytest.mark.parametrize("permuted", [False, True], ids=["grid", "permuted"])
    @pytest.mark.parametrize("N", [2, 20, 35])
    def test_gram_is_bitwise_symmetric_at_sweep_size(self, N, permuted):
        # sample_cov relies on numpy's P^T P being exactly symmetric (the
        # syrk path) at the sweep's n=1250, also for the column-shuffled
        # copy a permuted trial makes, so it equals (G + G^T) / 2 bit for bit.
        rng = np.random.default_rng(N)
        paths = rng.standard_normal((N, 1250))
        if permuted:
            paths = paths[:, rng.permutation(1250)]
        gram = paths.T @ paths
        np.testing.assert_array_equal(gram, gram.T)
        got = sample_cov(SampleSet(paths=paths, grid_h=1 / 1250)).entries
        G = gram / N
        np.testing.assert_array_equal(got, (G + G.T) / 2.0)
