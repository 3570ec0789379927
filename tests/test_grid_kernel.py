"""Grids, kernel evaluation, taper weights, and the piecewise-constant lift."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covlab import (
    CovMatrix,
    Matern,
    Periodic,
    PiecewiseConstant,
    SquaredExponential,
    UsageError,
    build_grid,
    discretize,
    eval_kernel,
    fisher_yates_permutation,
    lift_matrix_norm_check,
    shuffle_cov,
    taper_weight,
    taper_weight_matrix,
    taper_weight_sumform,
)
from helpers import random_psd, traced_peak_bytes


class TestGrid:
    def test_build_grid_d1(self):
        g = build_grid(1, 5)
        assert g.n == 5
        assert CovMatrix(np.eye(g.n)).h == pytest.approx(1 / 5)
        np.testing.assert_allclose(g.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_build_grid_d2_has_product_points(self):
        g = build_grid(2, 3)
        assert g.n == 9
        assert CovMatrix(np.eye(g.n)).h == pytest.approx(1 / 9)
        coords = set(map(tuple, g.points))
        axis = (0.0, 0.5, 1.0)
        assert coords == {(a, b) for a in axis for b in axis}

    def test_build_grid_rejects_bad_sizes(self):
        with pytest.raises(UsageError):
            build_grid(0, 4)
        with pytest.raises(UsageError):
            build_grid(1, 1)


class TestTaperWeight:
    def test_plateau_ramp_and_cutoff(self):
        kappa = 0.3
        assert taper_weight(kappa, 0.0, 0.2) == 1.0
        assert taper_weight(kappa, 0.0, 0.5) == pytest.approx(1 / 3)
        assert taper_weight(kappa, 0.0, 0.6) == 0.0
        assert taper_weight(kappa, 0.0, 0.9) == 0.0

    def test_identity_when_kappa_covers_domain(self):
        # With kappa >= 1 every pair in [0,1] sits on the plateau.
        for t in np.linspace(0.0, 1.0, 11):
            assert taper_weight(1.0, 0.0, t) == 1.0

    def test_product_over_coordinates(self):
        x = (0.0, 0.0)
        y = (0.5, 0.2)
        got = taper_weight(0.3, x, y)
        assert got == pytest.approx(taper_weight(0.3, 0.0, 0.5) * 1.0)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            kappa = float(rng.uniform(0.05, 1.2))
            x, y = rng.uniform(0, 1, d), rng.uniform(0, 1, d)
            assert taper_weight(kappa, x, y) == taper_weight(kappa, y, x)

    def test_sum_form_matches_product_form(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            d = int(rng.integers(1, 4))
            kappa = float(rng.uniform(0.02, 1.5))
            x, y = rng.uniform(0, 1, d), rng.uniform(0, 1, d)
            worst = max(
                worst,
                abs(taper_weight(kappa, x, y) - taper_weight_sumform(kappa, x, y)),
            )
        assert worst <= 1e-12

    def test_rejects_nonpositive_kappa(self):
        g = build_grid(1, 4)
        calls = (lambda k: taper_weight(k, 0.0, 0.5),
                 lambda k: taper_weight_sumform(k, 0.0, 0.5),
                 lambda k: taper_weight_matrix(k, g))
        for call in calls:
            for bad in (0.0, -0.1, math.nan, math.inf):
                with pytest.raises(UsageError, match="finite and > 0"):
                    call(bad)

    def test_weight_matrix_matches_scalar_calls(self):
        g = build_grid(2, 3)
        W = taper_weight_matrix(0.4, g)
        for i in range(g.n):
            for j in range(g.n):
                assert W[i, j] == pytest.approx(
                    taper_weight(0.4, g.points[i], g.points[j]), abs=1e-15
                )
        np.testing.assert_array_equal(W, W.T)
        np.testing.assert_array_equal(np.diag(W), np.ones(g.n))

    @pytest.mark.parametrize("d,L", [(1, 600), (2, 24)])
    def test_weight_matrix_allocates_at_most_one_matrix_beyond_its_result(self, d, L):
        g = build_grid(d, L)
        peak = traced_peak_bytes(lambda: taper_weight_matrix(0.1, g))
        assert peak <= 2.5 * g.n * g.n * 8


class TestKernels:
    def test_se_closed_form(self):
        k = SquaredExponential(0.2)
        assert eval_kernel(k, 0.3, 0.3) == 1.0
        t = 0.25
        assert eval_kernel(k, 0.0, t) == pytest.approx(math.exp(-(t * t) / (2 * 0.04)))

    def test_matern_half_is_exponential(self):
        k = Matern(0.3, smoothness=0.5)
        for t in (0.0, 0.1, 0.45):
            assert eval_kernel(k, 0.0, t) == pytest.approx(math.exp(-t / 0.3))

    def test_matern_three_halves_closed_form(self):
        lam, t = 0.2, 0.3
        s = math.sqrt(3) * t / lam
        assert eval_kernel(Matern(lam, 1.5), 0.0, t) == pytest.approx(
            (1 + s) * math.exp(-s)
        )

    def test_matern_five_halves_closed_form(self):
        lam, t = 0.4, 0.17
        s = math.sqrt(5) * t / lam
        assert eval_kernel(Matern(lam, 2.5), 0.0, t) == pytest.approx(
            (1 + s + s * s / 3) * math.exp(-s)
        )

    def test_matern_rejects_other_smoothness(self):
        with pytest.raises(UsageError):
            Matern(0.2, smoothness=1.0)

    def test_periodic_closed_form_and_periodicity(self):
        k = Periodic(0.15, period=0.4)
        assert eval_kernel(k, 0.1, 0.1) == 1.0
        assert eval_kernel(k, 0.0, 0.4) == pytest.approx(1.0)
        t = 0.13
        s = math.sin(math.pi * t / 0.4)
        assert eval_kernel(k, 0.0, t) == pytest.approx(
            math.exp(-2 * s * s / 0.15**2)
        )

    def test_kernels_reject_bad_lengthscale(self):
        for bad in (0.0, -0.5):
            with pytest.raises(UsageError):
                SquaredExponential(bad)
            with pytest.raises(UsageError):
                Matern(bad)
            with pytest.raises(UsageError):
                Periodic(bad, period=0.4)


class TestDiscretize:
    def test_entries_match_pointwise_evaluation(self):
        g = build_grid(1, 6)
        k = Matern(0.25)
        C = discretize(k, g)
        for i in range(6):
            for j in range(6):
                assert C.entries[i, j] == pytest.approx(
                    eval_kernel(k, g.points[i], g.points[j]), abs=1e-15
                )

    def test_exact_symmetry_and_unit_diagonal(self):
        g = build_grid(2, 5)
        C = discretize(SquaredExponential(0.3), g)
        np.testing.assert_array_equal(C.entries, C.entries.T)
        np.testing.assert_allclose(np.diag(C.entries), 1.0)

    def test_cov_matrix_rejects_asymmetry(self):
        bad = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(UsageError):
            CovMatrix(entries=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_cov_matrix_rejects_non_finite_entries(self, bad):
        entries = np.eye(3)
        entries[1, 2] = entries[2, 1] = bad
        with pytest.raises(UsageError, match="non-finite"):
            CovMatrix(entries=entries)

    def test_cov_matrix_rejects_an_empty_matrix(self):
        # Its weight 1/n needs at least one grid point.
        with pytest.raises(UsageError, match="at least one grid point"):
            CovMatrix(entries=np.zeros((0, 0)))

    @pytest.mark.parametrize(("d", "L"), [(1, 7), (1, 1250), (2, 5), (2, 36), (3, 4)])
    def test_weight_is_one_over_n(self, d, L):
        C = discretize(SquaredExponential(0.3), build_grid(d, L))
        assert C.h == 1.0 / L**d
        assert C.h == float(L) ** -d  # the grid weight L^-d, bit for bit here


_LENGTHSCALES = st.floats(0.01, 2.0)
_STATIONARY = st.one_of(
    st.builds(SquaredExponential, _LENGTHSCALES),
    st.builds(Matern, _LENGTHSCALES, st.sampled_from((0.5, 1.5, 2.5))),
    st.builds(Periodic, _LENGTHSCALES, st.floats(0.05, 2.0)),
)


@given(spec=_STATIONARY, d=st.sampled_from((1, 2)), L=st.integers(2, 7))
def test_eval_kernel_is_bitwise_the_discretized_entry(spec, d, L):
    g = build_grid(d, L)
    C = discretize(spec, g)
    for i in range(g.n):
        for j in range(g.n):
            assert eval_kernel(spec, g.points[i], g.points[j]) == C.entries[i, j]


class TestPiecewiseConstant:
    def test_lift_is_block_constant(self):
        values = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
        g = build_grid(1, 9)
        C = discretize(PiecewiseConstant(values), g)
        cells = np.minimum((g.points[:, 0] * 3).astype(int), 2)
        expected = values[np.ix_(cells, cells)]
        np.testing.assert_array_equal(C.entries, expected)

    def test_lift_norm_identity(self):
        rng = np.random.default_rng(23)
        for M in (2, 5, 8):
            Sigma = random_psd(rng, M)
            measured, target, rel = lift_matrix_norm_check(Sigma, build_grid(1, 4 * M))
            assert rel <= 1e-10
            assert measured == pytest.approx(target, rel=1e-10)

    def test_lift_requires_aligned_grid(self):
        Sigma = np.eye(3)
        with pytest.raises(UsageError):
            lift_matrix_norm_check(Sigma, build_grid(1, 10))

    def test_rejects_asymmetric_values(self):
        with pytest.raises(UsageError):
            PiecewiseConstant(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_rejects_empty_values(self):
        # Zero cells cannot divide a grid into equal blocks.
        with pytest.raises(UsageError, match="at least one grid point"):
            PiecewiseConstant(np.zeros((0, 0)))


class TestFisherYates:
    def test_is_a_permutation_and_deterministic(self):
        p = fisher_yates_permutation(40, 123)
        q = fisher_yates_permutation(40, 123)
        np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(np.sort(p), np.arange(40))

    def test_seed_changes_output(self):
        a = fisher_yates_permutation(40, 1)
        b = fisher_yates_permutation(40, 2)
        assert not np.array_equal(a, b)

    def test_singleton(self):
        np.testing.assert_array_equal(fisher_yates_permutation(1, 9), [0])

    def test_shuffle_gathers_both_axes_like_a_fancy_index(self):
        C = discretize(SquaredExponential(0.1), build_grid(1, 60))
        shuffled, perm = shuffle_cov(C, 11)
        assert np.array_equal(shuffled.entries, C.entries[np.ix_(perm, perm)])
