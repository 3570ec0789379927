"""Cholesky factorization, seeded path drawing, and the sample covariance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covlab import (
    CovMatrix,
    NumericError,
    UsageError,
    build_grid,
    cholesky_psd,
    discretize,
    draw_paths,
    sample_cov,
    SquaredExponential,
)
from covlab.sampling import CholFactor, _substream_keys
from helpers import random_psd


def _wrap(entries: np.ndarray) -> CovMatrix:
    return CovMatrix(entries=entries)


def _substream(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))


def _identity(n: int) -> CholFactor:
    return CholFactor(lower=np.eye(n), jitter_used=0.0)


_KEY_SEEDS = [
    0, 1, 5, 2**32 - 1, 2**32, 2**32 + 7, 2**63, 2**64 - 1,
    12345678901234567890, 3**40, 2**64 + 5, 2**96,
]


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


class TestDrawPaths:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        fac = cholesky_psd(_wrap(random_psd(rng, 8, jitter=0.2)))
        a = draw_paths(fac, 4, 99)
        b = draw_paths(fac, 4, 99)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_draws(self):
        rng = np.random.default_rng(5)
        fac = cholesky_psd(_wrap(random_psd(rng, 8, jitter=0.2)))
        a = draw_paths(fac, 4, 1)
        b = draw_paths(fac, 4, 2)
        assert not np.array_equal(a, b)

    def test_rows_come_from_per_path_substreams(self):
        # Growing N must extend the sample, not reshuffle it.
        rng = np.random.default_rng(6)
        fac = cholesky_psd(_wrap(random_psd(rng, 10, jitter=0.2)))
        small = draw_paths(fac, 3, 42)
        big = draw_paths(fac, 7, 42)
        np.testing.assert_array_equal(big[:3], small)

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

    def test_rejects_negative_seed(self):
        rng = np.random.default_rng(9)
        fac = cholesky_psd(_wrap(random_psd(rng, 4, jitter=0.2)))
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            draw_paths(fac, 3, -1)

    @pytest.mark.parametrize("seed", _KEY_SEEDS)
    def test_keys_are_the_seed_sequence_states(self, seed):
        want = np.array(
            [np.random.SeedSequence((seed, i)).generate_state(2, np.uint64) for i in range(300)]
        )
        got = _substream_keys(seed, 300)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 31, 32, 33, 65])
    def test_identity_factor_returns_the_substream_normals(self, N):
        want = np.array([_substream(2024, i).standard_normal(6) for i in range(N)])
        got = draw_paths(_identity(6), N, 2024)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("N", [1, 31, 32, 33, 64])
    def test_rows_are_prefix_stable_across_blocks(self, N):
        # At n=100 one product over all N rows rounds rows differently for
        # every N here; at n=40 only N=1 showed it.
        rng = np.random.default_rng(11)
        fac = cholesky_psd(_wrap(random_psd(rng, 100, jitter=0.2)))
        big = draw_paths(fac, 70, 31)
        np.testing.assert_array_equal(draw_paths(fac, N, 31), big[:N])

    def test_blocked_product_matches_per_path_product(self):
        rng = np.random.default_rng(12)
        fac = cholesky_psd(_wrap(random_psd(rng, 300, jitter=0.2)))
        got = draw_paths(fac, 40, 77)
        for i, row in enumerate(got):
            want = fac.lower @ _substream(77, i).standard_normal(300)
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))

    def test_paths_are_a_fresh_read_only_array(self):
        # Rows sliced from the padded block buffer would keep it alive.
        rng = np.random.default_rng(13)
        fac = cholesky_psd(_wrap(random_psd(rng, 10, jitter=0.2)))
        paths = draw_paths(fac, 33, 5)
        assert paths.shape == (33, 10)
        assert paths.flags.c_contiguous
        assert paths.base is None
        assert not paths.flags.writeable

    @given(seed=st.integers(0, 2**96 - 1), N=st.integers(1, 80))
    def test_identity_draws_equal_per_path_generators(self, seed, N):
        want = np.array([_substream(seed, i).standard_normal(3) for i in range(N)])
        np.testing.assert_array_equal(draw_paths(_identity(3), N, seed), want)


class TestSampleCov:
    def test_single_path_outer_product(self):
        S = np.array([[1.0, 2.0]])
        np.testing.assert_array_equal(
            sample_cov(S).entries, [[1.0, 2.0], [2.0, 4.0]]
        )

    def test_nested_list_gives_the_array_result(self):
        np.testing.assert_array_equal(
            sample_cov([[1.0, 2.0]]).entries, sample_cov(np.array([[1.0, 2.0]])).entries
        )

    @pytest.mark.parametrize(
        "paths",
        [np.zeros((0, 5)), np.zeros((3, 0)), np.zeros(5), np.zeros((2, 3, 4))],
        ids=["no-rows", "no-columns", "1-D", "3-D"],
    )
    def test_paths_must_be_a_non_empty_2d_array(self, paths):
        with pytest.raises(UsageError, match="non-empty"):
            sample_cov(paths)

    def test_zero_paths_give_zero_matrix(self):
        S = np.zeros((3, 4))
        np.testing.assert_array_equal(sample_cov(S).entries, np.zeros((4, 4)))

    def test_no_mean_centering(self):
        # Constant paths have second moment c^2, not variance 0.
        S = np.full((6, 3), 2.0)
        np.testing.assert_allclose(sample_cov(S).entries, 4.0)

    def test_output_is_exactly_symmetric_psd(self):
        rng = np.random.default_rng(10)
        S = rng.standard_normal((7, 12))
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
        got = sample_cov(paths).entries
        G = gram / N
        np.testing.assert_array_equal(got, (G + G.T) / 2.0)
