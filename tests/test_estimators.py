"""Tapering, thresholding, and their data-driven parameter rules."""

import math

import numpy as np
import pytest

from covlab import (
    CovMatrix,
    NuSequence,
    UsageError,
    adaptive_threshold,
    build_grid,
    choose_kappa,
    taper_estimate,
    taper_weight,
    threshold_estimate,
)


def _chat(entries):
    return CovMatrix(entries=np.asarray(entries, dtype=float))


class TestTaperEstimate:
    def test_identity_when_kappa_covers_domain(self):
        g = build_grid(1, 6)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        Chat = _chat((A + A.T) / 2)
        out = taper_estimate(Chat, 1.0, g)
        np.testing.assert_array_equal(out.entries, Chat.entries)

    def test_collapses_to_diagonal_for_tiny_kappa(self):
        g = build_grid(1, 5)  # spacing 0.25
        Chat = _chat(np.ones((5, 5)))
        out = taper_estimate(Chat, 0.1, g)  # support 2*kappa = 0.2 < spacing
        np.testing.assert_array_equal(out.entries, np.eye(5))

    def test_ramp_value_on_all_ones(self):
        g = build_grid(1, 5)
        Chat = _chat(np.ones((5, 5)))
        out = taper_estimate(Chat, 0.3, g)
        # entry (0, 2): gap 0.5, weight (0.6 - 0.5) / 0.3
        assert out.entries[0, 2] == pytest.approx(1 / 3)
        assert out.entries[0, 1] == 1.0
        np.testing.assert_array_equal(np.diag(out.entries), np.ones(5))

    def test_zero_beyond_support_and_exact_weights(self):
        g = build_grid(1, 9)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((9, 9))
        Chat = _chat((A + A.T) / 2)
        kappa = 0.2
        out = taper_estimate(Chat, kappa, g)
        for i in range(9):
            for j in range(9):
                gap = abs(g[i, 0] - g[j, 0])
                if gap >= 2 * kappa:
                    assert out.entries[i, j] == 0.0
                else:
                    want = Chat.entries[i, j] * taper_weight(
                        kappa, g[i], g[j]
                    )
                    assert out.entries[i, j] == want

    def test_idempotent_and_symmetric(self):
        g = build_grid(2, 4)
        rng = np.random.default_rng(3)
        A = rng.standard_normal((16, 16))
        Chat = _chat((A + A.T) / 2)
        once = taper_estimate(Chat, 0.5, g)
        # Same support pattern, but weights multiply twice; idempotence holds
        # for the 0/1 plateau region and the zero region.
        np.testing.assert_array_equal(once.entries, once.entries.T)
        twice = taper_estimate(once, 0.5, g)
        plateau = np.abs(
            g[:, None, :] - g[None, :, :]
        ).max(axis=2) <= 0.5
        np.testing.assert_array_equal(
            twice.entries[plateau], once.entries[plateau]
        )

    def test_rejects_bad_inputs(self):
        g = build_grid(1, 4)
        Chat = _chat(np.eye(4))
        with pytest.raises(UsageError):
            taper_estimate(Chat, 0.0, g)
        with pytest.raises(UsageError):
            taper_estimate(_chat(np.eye(3)), 0.2, g)  # size mismatch

    def test_rejects_an_infinite_radius(self):
        # (2 kappa - t) / kappa would be inf / inf, a nan weight.
        with pytest.raises(UsageError, match="finite"):
            taper_estimate(_chat(np.eye(4)), math.inf, build_grid(1, 4))


class TestThresholdEstimate:
    def test_zero_level_is_identity(self):
        Chat = _chat([[1.0, 0.2], [0.2, 1.0]])
        np.testing.assert_array_equal(
            threshold_estimate(Chat, 0.0).entries, Chat.entries
        )

    def test_level_above_max_zeroes_everything(self):
        Chat = _chat([[1.0, 0.2], [0.2, 1.0]])
        np.testing.assert_array_equal(
            threshold_estimate(Chat, 1.5).entries, np.zeros((2, 2))
        )

    def test_ties_are_kept(self):
        Chat = _chat([[1.0, 0.3], [0.3, 1.0]])
        kept = threshold_estimate(Chat, 0.3)
        np.testing.assert_array_equal(kept.entries, Chat.entries)
        dropped = threshold_estimate(Chat, 0.300001)
        np.testing.assert_array_equal(dropped.entries, np.eye(2))

    def test_negative_entries_use_magnitude(self):
        Chat = _chat([[1.0, -0.4], [-0.4, 1.0]])
        kept = threshold_estimate(Chat, 0.35)
        assert kept.entries[0, 1] == -0.4

    def test_dropped_negative_entry_is_negative_zero(self):
        # entry * (|entry| >= level): the sign bit of a dropped negative
        # entry stays, and with it the bytes of a dumped estimate.
        dropped = threshold_estimate(_chat([[1.0, -0.2], [-0.2, 1.0]]), 0.5).entries
        assert dropped[0, 1] == 0.0 and np.signbit(dropped[0, 1]) and np.signbit(dropped[1, 0])

    def test_idempotent_and_monotone_support(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 10))
        Chat = _chat((A + A.T) / 2)
        lo = threshold_estimate(Chat, 0.3)
        hi = threshold_estimate(Chat, 0.9)
        np.testing.assert_array_equal(
            threshold_estimate(lo, 0.3).entries, lo.entries
        )
        assert set(zip(*np.nonzero(hi.entries))) <= set(zip(*np.nonzero(lo.entries)))

    def test_rejects_negative_level(self):
        Chat = _chat(np.eye(2))
        with pytest.raises(UsageError):
            threshold_estimate(Chat, -0.1)


class TestChooseKappa:
    def test_worked_examples(self):
        raw_exp = NuSequence.table([math.exp(-m) for m in range(1, 40)])
        assert choose_kappa(raw_exp, 35, 1, 1e-3) == pytest.approx(0.002)
        assert choose_kappa(raw_exp, 1, 1, 0.7) == pytest.approx(0.7)
        inv = NuSequence.table([1 / m for m in range(1, 200)])
        assert choose_kappa(inv, 100, 1, 0.1) == pytest.approx(0.5)

    def test_nondecreasing_in_sample_size(self):
        nu = NuSequence.se_d1()
        kappas = [choose_kappa(nu, N, 1, 1.0) for N in (1, 5, 25, 125, 3000)]
        assert kappas == sorted(kappas)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(UsageError):
            choose_kappa(NuSequence.se_d1(), 10, 1, 0.0)


class TestAdaptiveThreshold:
    def test_zero_paths_give_zero(self):
        S = np.zeros((3, 5))
        assert adaptive_threshold(S, 2.0, 1.0) == 0.0

    def test_single_path_worked_example(self):
        S = np.array([[0.5, 2.0, -1.0]])
        # c0 * sqrt(k_inf) / sqrt(N) * mean of per-path maxima = 2 * 1 * 2 / 1
        assert adaptive_threshold(S, 2.0, 1.0) == pytest.approx(4.0)

    def test_nested_list_gives_the_array_result(self):
        assert adaptive_threshold([[1.0, 2.0]], 2.0, 1.0) == adaptive_threshold(
            np.array([[1.0, 2.0]]), 2.0, 1.0
        )

    def test_signed_supremum_can_go_negative(self):
        S = np.array([[-3.0, -1.0]])
        assert adaptive_threshold(S, 1.0, 1.0) == pytest.approx(-1.0)

    def test_homogeneity_with_known_k_inf(self):
        rng = np.random.default_rng(5)
        paths = rng.standard_normal((6, 8))
        base = adaptive_threshold(paths, 2.0, 1.0)
        doubled = adaptive_threshold(2.0 * paths, 2.0, 1.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_negative_known_value_rejected(self):
        S = np.ones((2, 3))
        with pytest.raises(UsageError):
            adaptive_threshold(S, 2.0, -1.0)

    @pytest.mark.parametrize(
        "paths",
        [np.zeros((0, 5)), np.zeros((3, 0)), np.zeros(5), np.zeros((2, 3, 4))],
        ids=["no-rows", "no-columns", "1-D", "3-D"],
    )
    def test_paths_must_be_a_non_empty_2d_array(self, paths):
        with pytest.raises(UsageError, match="non-empty"):
            adaptive_threshold(paths, 2.0, 1.0)

    def test_nonpositive_c0_rejected(self):
        S = np.ones((2, 3))
        with pytest.raises(UsageError):
            adaptive_threshold(S, 0.0, 1.0)
