"""Sweep harness: seeding, trial runs, aggregation, and CSV round trips."""

import contextlib
import dataclasses
import math
import threading
import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import covlab.diagnostics
import covlab.experiments as expmod
from covlab import (
    CovMatrix,
    ExperimentConfig,
    KernelTemplate,
    SummaryRow,
    TrialRecord,
    UsageError,
    build_grid,
    cholesky_psd,
    discretize,
    emit_csv,
    load_summaries,
    load_trials,
    n_for_lambda,
    run_sweep,
    run_trial,
    summarize,
    trial_seed,
)
from covlab.experiments import (
    SUMMARY_HEADER,
    TRIAL_HEADER,
    build_prep,
    kernel_for,
    simulate_trial,
)
from helpers import FORM_EXTRA_PER_ROW, form_doubles, traced_peak_bytes


def _cfg(**overrides) -> ExperimentConfig:
    defaults = dict(
        kernels=(KernelTemplate("se"),),
        lambda_grid=(0.05,),
        L=48,
        trials=2,
        base_seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSampleCountRule:
    def test_paper_scale_values(self):
        cfg = _cfg(lambda_grid=(1e-3, 10**-2.2, 10**-0.1))
        assert n_for_lambda(cfg, 1e-3) == 35
        assert n_for_lambda(cfg, 10**-2.2) == 26
        assert n_for_lambda(cfg, 10**-0.1) == 2

    def test_dimension_scales_the_rule(self):
        cfg = _cfg(d=2, L=12, lambda_grid=(0.1,))
        assert n_for_lambda(cfg, 0.1) == math.ceil(5.0 * 2 * math.log(10))

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(UsageError):
            _cfg(n_mult=0.0)

    def test_rejects_lambda_outside_unit_interval(self):
        with pytest.raises(UsageError):
            _cfg(lambda_grid=(1.0,))
        with pytest.raises(UsageError):
            _cfg(lambda_grid=(0.0,))


class TestRepeatsRefused:
    # Trials are seeded by grid position (the first match) and summarized
    # by (kernel, lambda), so a repeat would rerun or merge whole cells.
    @pytest.mark.parametrize("second", [
        KernelTemplate("se"), KernelTemplate("se", nu_source="exp"),
    ], ids=["same", "other-nu"])
    def test_repeated_kernel_name(self, second):
        with pytest.raises(UsageError, match="config repeats kernel se$"):
            _cfg(kernels=(KernelTemplate("se"), KernelTemplate("matern"), second))

    def test_repeated_lengthscale(self):
        with pytest.raises(UsageError, match="config repeats lengthscale 0.1$"):
            _cfg(lambda_grid=(0.1, 0.2, 0.1))


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        cfg = _cfg()
        a = trial_seed(cfg, 0, 0, 0)
        b = trial_seed(cfg, 0, 0, 0)
        assert tuple(a) == tuple(b)
        seen = {
            tuple(trial_seed(cfg, k, l, t))
            for k in range(2)
            for l in range(2)
            for t in range(4)
        }
        assert len(seen) == 16

    def test_base_seed_changes_streams(self):
        assert tuple(trial_seed(_cfg(base_seed=1), 0, 0, 0)) != tuple(
            trial_seed(_cfg(base_seed=2), 0, 0, 0)
        )


class TestKernelNames:
    @pytest.mark.parametrize("name", ["bogus", "pwc"])
    def test_unknown_name_is_a_usage_error(self, name):
        with pytest.raises(UsageError, match=repr(name)):
            kernel_for(name, 0.1, 1.5, 0.4)


class TestRunTrial:
    def test_bitwise_repeatable(self):
        cfg = _cfg()
        a = run_trial(cfg.kernels[0], 0.05, cfg, 1)
        b = run_trial(cfg.kernels[0], 0.05, cfg, 1)
        assert a == b

    def test_taper_equals_sample_when_band_covers_domain(self):
        # kappa = m_star * lambda = 1.2 >= domain diameter
        cfg = _cfg(lambda_grid=(0.6,))
        rec = run_trial(cfg.kernels[0], 0.6, cfg, 0)
        assert rec.kappa >= 1.0
        assert rec.err_taper == rec.err_sample

    def test_record_fields_are_consistent(self):
        cfg = _cfg()
        rec = run_trial(cfg.kernels[0], 0.05, cfg, 3)
        assert rec.kernel == "se"
        assert rec.trial == 3
        assert rec.N == n_for_lambda(cfg, 0.05)
        assert rec.err_sample >= 0 and rec.err_taper >= 0 and rec.err_thresh >= 0
        assert math.isfinite(rec.rho_hat)

    def test_negative_adaptive_level_keeps_every_entry(self):
        # At N=2 the signed-sup mean can dip below zero; the thresholded
        # estimate must then equal the sample covariance, not error out.
        lam = 0.7943282347242815
        cfg = _cfg(lambda_grid=(lam,))
        rec = run_trial(cfg.kernels[0], lam, cfg, 4)
        assert rec.N == 2
        assert rec.rho_hat < 0
        assert rec.err_thresh == rec.err_sample

    def test_permuted_kernel_uses_fresh_permutation_per_trial(self):
        cfg = _cfg(kernels=(KernelTemplate("permuted"),))
        a = run_trial(cfg.kernels[0], 0.05, cfg, 0)
        b = run_trial(cfg.kernels[0], 0.05, cfg, 1)
        assert a.seed != b.seed
        assert a.err_sample != b.err_sample

    def test_unknown_lambda_rejected(self):
        cfg = _cfg()
        with pytest.raises(UsageError):
            run_trial(cfg.kernels[0], 0.123, cfg, 0)

    def test_without_matrices_each_estimate_is_dropped_once_scored(self):
        lam, L = 1e-2, 300
        cfg = _cfg(lambda_grid=(lam,), L=L)
        prep = build_prep(cfg.kernels[0], lam, L, 1, n_for_lambda(cfg, lam), cfg.norm_tol)
        draw_seed, shuffle_seed = trial_seed(cfg, 0, 0, 0)
        record, matrices = simulate_trial(prep, draw_seed, shuffle_seed, cfg.c0)
        assert set(matrices) == {"truth", "sample", "taper", "threshold"}
        out = []
        peak = traced_peak_bytes(lambda: out.append(
            simulate_trial(prep, draw_seed, shuffle_seed, cfg.c0, keep_matrices=False)))
        assert out == [(record, {})]
        # The Gram, one estimate, its error and the dense solve's copy: fewer
        # than four (n, n) arrays at once, against 4.4 when all are kept.
        assert peak < 4 * prep.C.n ** 2 * 8


class TestRunSweep:
    def test_cardinality_and_canonical_order(self):
        cfg = _cfg(
            kernels=(KernelTemplate("se"), KernelTemplate("matern")),
            lambda_grid=(0.05, 0.2),
            trials=3,
        )
        result = run_sweep(cfg)
        assert result.ok and not result.failures
        assert len(result.records) == 2 * 2 * 3
        key = [(r.kernel, r.lam, r.trial) for r in result.records]
        want = [
            (k.name, lam, t)
            for k in cfg.kernels
            for lam in cfg.lambda_grid
            for t in range(3)
        ]
        assert key == want

    def test_thread_count_does_not_change_records(self):
        cfg = _cfg(
            kernels=(KernelTemplate("se"), KernelTemplate("permuted")),
            lambda_grid=(0.05, 0.2),
            trials=3,
        )
        seq = run_sweep(cfg, threads=1)
        par = run_sweep(cfg, threads=4)
        assert seq.records == par.records

    def test_growing_the_grid_never_moves_a_trial(self, tmp_path):
        small = _cfg(
            kernels=(KernelTemplate("se"), KernelTemplate("permuted")),
            lambda_grid=(0.05, 0.2),
            L=32,
        )
        grown = _cfg(
            kernels=small.kernels + (KernelTemplate("matern"),),
            lambda_grid=small.lambda_grid + (0.1,),
            L=32,
        )
        rows = {}
        for name, cfg in (("small", small), ("grown", grown)):
            path = tmp_path / f"{name}.csv"
            emit_csv(list(run_sweep(cfg).records), path, kind="trials")
            rows[name] = path.read_text().splitlines()[1:]
        assert len(rows["small"]) == 2 * 2 * 2 and len(rows["grown"]) == 3 * 3 * 2
        assert set(rows["small"]) <= set(rows["grown"])

    def test_threaded_progress_streams_before_the_pool_drains(self, monkeypatch):
        # The last trial waits for a progress line before it finishes.  A
        # sweep that held progress back until every trial was done would make
        # it time out (10 s) instead of hanging, and the test would fail.
        cfg = _cfg(trials=4)
        streamed = threading.Event()
        seen = []
        real = expmod.run_trial

        def gated(template, lam, cfg_, trial, prep=None):
            if trial == cfg.trials - 1:
                seen.append(streamed.wait(timeout=10.0))
            return real(template, lam, cfg_, trial, prep=prep)

        monkeypatch.setattr(expmod, "run_trial", gated)
        lines = []

        def progress(line):
            lines.append(line)
            streamed.set()

        result = run_sweep(cfg, threads=2, progress=progress)
        assert result.ok and len(result.records) == 4
        assert seen == [True]
        assert [line.split()[3] for line in lines] == [f"trial={t}" for t in range(4)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_progress_counts_and_eta(self, threads):
        cfg = _cfg(kernels=(KernelTemplate("se"), KernelTemplate("matern")),
                   lambda_grid=(0.05, 0.2), trials=2)
        lines = []
        run_sweep(cfg, threads=threads, progress=lines.append)
        n = 2 * 2 * 2
        grid = [(k.name, lam, t) for k in cfg.kernels for lam in cfg.lambda_grid for t in range(2)]
        assert len(lines) == n
        for k, (line, (name, lam, t)) in enumerate(zip(lines, grid), start=1):
            tokens = line.split()
            # benchmarks/tracing.py reads tokens 1-3 of the first four.
            assert tokens[:5] == ["trial", f"kernel={name}", f"lambda={lam!r}", f"trial={t}", "ok"]
            count, eta = tokens[5:]
            assert count == f"{k}/{n}"
            assert eta.startswith("eta=") and eta.endswith("s")
            assert float(eta[len("eta="):-1]) >= 0.0

    def test_failures_are_collected_not_fatal(self, monkeypatch):
        cfg = _cfg(trials=3)
        real = expmod.adaptive_threshold
        calls = {"n": 0}

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("synthetic trial failure")
            return real(*args)

        monkeypatch.setattr(expmod, "adaptive_threshold", flaky)
        result = run_sweep(cfg)
        assert not result.ok
        assert len(result.records) == 2
        assert len(result.failures) == 1
        assert "kernel=se" in result.failures[0]
        assert "trial=1" in result.failures[0]
        assert "synthetic trial failure" in result.failures[0]


# At L=300 ARPACK cannot resolve the top of the SE truth at lambda=3e-3
# (its top is clustered), but resolves it at lambda=1e-2.
_FORM_L, _FORM_LAM, _PLAIN_LAM = 300, 3e-3, 1e-2


def _dense_norm(A):
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


class TestTridiagonalFormCells:
    def test_only_a_truth_that_fails_arpack_keeps_the_form(self):
        tol = ExperimentConfig.norm_tol
        for lam, fails in ((_FORM_LAM, True), (_PLAIN_LAM, False)):
            prep = build_prep(KernelTemplate("se"), lam, _FORM_L, 1, 30, tol)
            assert (covlab.diagnostics._arpack_top(prep.C.entries, tol) is None) == fails
            assert (prep.form is not None) == fails
            # The form's norm is exact; ARPACK's holds to its residual tolerance.
            rel = 1e-13 if fails else 10 * tol
            assert prep.norm == pytest.approx(_dense_norm(prep.C.entries), rel=rel)
            if fails:
                n = prep.C.n
                assert form_doubles(prep.form) <= n * (n - 1) // 2 + FORM_EXTRA_PER_ROW * n

    @pytest.mark.parametrize("kernel", ["se", "permuted"])
    def test_threshold_errors_match_dense(self, kernel, monkeypatch):
        cfg = _cfg(kernels=(KernelTemplate(kernel),), lambda_grid=(_FORM_LAM,), L=_FORM_L)
        prep = build_prep(cfg.kernels[0], _FORM_LAM, cfg.L, 1, n_for_lambda(cfg, _FORM_LAM),
                          cfg.norm_tol)
        ranks = []
        real = expmod.lowrank_update_norm

        def counted(form, rows, block):
            ranks.append(rows.size)
            return real(form, rows, block)

        monkeypatch.setattr(expmod, "lowrank_update_norm", counted)
        for trial in range(3):
            draw_seed, shuffle_seed = trial_seed(cfg, 0, 0, trial)
            rec, mats = simulate_trial(prep, draw_seed, shuffle_seed, cfg.c0, trial=trial)
            truth = mats["truth"].entries
            dense = _dense_norm(mats["threshold"].entries - truth) / _dense_norm(truth)
            assert rec.err_thresh == pytest.approx(dense, rel=1e-13)
        assert len(ranks) == 3 and all(0 < r <= expmod.LOWRANK_MAX_RANK for r in ranks)

    @pytest.mark.parametrize("kernel", ["se", "permuted"])
    def test_the_fold_reaches_only_the_form(self, kernel, monkeypatch):
        # The split form reduces the truth's centrosymmetric fold; the truth,
        # its factor and so the paths and rho_hat keep their own bits.
        cfg = _cfg(kernels=(KernelTemplate(kernel),), lambda_grid=(_FORM_LAM,), L=_FORM_L)
        prep = build_prep(cfg.kernels[0], _FORM_LAM, cfg.L, 1, n_for_lambda(cfg, _FORM_LAM),
                          cfg.norm_tol)
        assert prep.form.split
        spec = kernel_for(kernel, _FORM_LAM, KernelTemplate.smoothness, KernelTemplate.period)
        C = discretize(spec, build_grid(1, cfg.L))
        assert np.array_equal(prep.C.entries, C.entries)
        assert np.array_equal(prep.factor.lower, cholesky_psd(C).lower)
        split = run_sweep(cfg).records
        monkeypatch.setattr(expmod, "LOWRANK_MAX_RANK", 0)  # threshold errors skip the form
        dense = run_sweep(cfg).records
        assert [(r.rho_hat, r.kappa, r.seed) for r in split] == [
            (r.rho_hat, r.kappa, r.seed) for r in dense]

    @pytest.mark.parametrize("kernel", ["se", "permuted"])
    def test_any_estimate_of_few_rows_is_normed_from_the_form(self, kernel, monkeypatch):
        # The norm's route follows the estimate's nonzero rows, not the
        # estimator that built it: a taper estimate of three rows takes the
        # form as the threshold estimate does.
        cfg = _cfg(kernels=(KernelTemplate(kernel),), lambda_grid=(_FORM_LAM,), L=_FORM_L)
        prep = build_prep(cfg.kernels[0], _FORM_LAM, cfg.L, 1, n_for_lambda(cfg, _FORM_LAM),
                          cfg.norm_tol)

        def three_rows(Chat, kappa, grid):
            keep = np.ix_([3, 50, 120], [3, 50, 120])
            entries = np.zeros_like(Chat.entries)
            entries[keep] = Chat.entries[keep]
            return CovMatrix(entries)

        ranks = []
        real = expmod.lowrank_update_norm

        def counted(form, rows, block):
            ranks.append(rows.size)
            return real(form, rows, block)

        monkeypatch.setattr(expmod, "taper_estimate", three_rows)
        monkeypatch.setattr(expmod, "lowrank_update_norm", counted)
        draw_seed, shuffle_seed = trial_seed(cfg, 0, 0, 0)
        rec, mats = simulate_trial(prep, draw_seed, shuffle_seed, cfg.c0)
        truth = mats["truth"].entries
        dense = _dense_norm(mats["taper"].entries - truth) / _dense_norm(truth)
        assert rec.err_taper == pytest.approx(dense, rel=1e-13)
        assert ranks[0] == 3 and len(ranks) == 2  # the taper's, then the threshold's

    def test_rank_above_the_cap_takes_the_spectral_norm(self, monkeypatch):
        cfg = _cfg(lambda_grid=(_FORM_LAM,), L=_FORM_L, trials=2)
        lowrank = run_sweep(cfg).records
        calls = []
        real = expmod.spectral_norm

        def counted(A, tol):
            calls.append(tol)
            return real(A, tol=tol)

        monkeypatch.setattr(expmod, "LOWRANK_MAX_RANK", 0)
        monkeypatch.setattr(expmod, "lowrank_update_norm", None)  # must not be called
        monkeypatch.setattr(expmod, "spectral_norm", counted)
        capped = run_sweep(cfg).records
        assert len(calls) == 3 * cfg.trials  # sample, taper and threshold errors
        for a, b in zip(lowrank, capped):
            assert (a.err_sample, a.err_taper) == (b.err_sample, b.err_taper)
            assert a.err_thresh == pytest.approx(b.err_thresh, rel=10 * cfg.norm_tol)

    @pytest.mark.parametrize("lam, norms, lowranks", [
        (_PLAIN_LAM, 3, 0),  # sample, taper and threshold errors
        (_FORM_LAM, 2, 1),  # the threshold error from the truth's form
    ], ids=["no-form", "form"])
    def test_every_error_norm_goes_through_spectral_norm(self, monkeypatch, lam, norms, lowranks):
        # The benchmark's traced norm layer wraps experiments.spectral_norm,
        # so an error norm taken past it would vanish from the trace.
        cfg = _cfg(lambda_grid=(lam,), L=_FORM_L, trials=2)
        args, ranks = [], []
        real_norm, real_lowrank = expmod.spectral_norm, expmod.lowrank_update_norm

        def counted_norm(A, tol):
            args.append(A)
            return real_norm(A, tol=tol)

        def counted_lowrank(form, rows, block):
            ranks.append(rows.size)
            return real_lowrank(form, rows, block)

        monkeypatch.setattr(expmod, "spectral_norm", counted_norm)
        monkeypatch.setattr(expmod, "lowrank_update_norm", counted_lowrank)
        assert run_sweep(cfg).ok
        assert len(args) == norms * cfg.trials and len(ranks) == lowranks * cfg.trials
        assert all(isinstance(A, covlab.diagnostics._DifferenceOperator) for A in args)

    def test_rows_of_a_form_cell_round_trip(self, tmp_path):
        records = run_sweep(_cfg(lambda_grid=(_FORM_LAM,), L=_FORM_L)).records
        path = tmp_path / "trials.csv"
        emit_csv(list(records), path, kind="trials")
        assert [r.err_thresh for r in load_trials(path)] == [r.err_thresh for r in records]

    def test_sweep_counts_the_cells_on_the_low_rank_norm(self):
        cfg = _cfg(lambda_grid=(_FORM_LAM, _PLAIN_LAM), L=_FORM_L, trials=1)
        assert run_sweep(cfg).lowrank_cells == 1
        assert run_sweep(_cfg()).lowrank_cells == 0


def _captured_operators(monkeypatch):
    """Patch experiments.spectral_norm to record (operator, norm) pairs."""
    seen = []
    real = expmod.spectral_norm

    def recording(A, tol):
        seen.append((A, real(A, tol=tol)))
        return seen[-1][1]

    monkeypatch.setattr(expmod, "spectral_norm", recording)
    return seen


# (kernel, lambda) per dimension; none of these truths keeps a form at
# L=300 (d=1) or L=18 (d=2, n=324), so all three errors are operators.  The
# periodic kernel of the Euclidean distance is not PSD at d=2 with period
# 0.4 (its smallest eigenvalue here is -6.1), but is with period 2.
_OPERATOR_CELLS = {
    1: [KernelTemplate("se"), KernelTemplate("matern"), KernelTemplate("periodic"),
        KernelTemplate("permuted")],
    2: [KernelTemplate(name, nu_source="exp", period=2.0)
        for name in ("se", "matern", "periodic", "permuted")],
}
_OPERATOR_LAM = {1: 0.05, 2: 0.1}
_OPERATOR_L = {1: 300, 2: 18}


class TestErrorOperators:
    """Each error norm is taken of an operator, never of a formed est - truth."""

    @staticmethod
    def _trial(template, lam, d=1, L=_FORM_L, keep_matrices=True, trial=0):
        cfg = _cfg(kernels=(template,), lambda_grid=(lam,), L=L, d=d)
        prep = build_prep(cfg.kernels[0], lam, L, d, n_for_lambda(cfg, lam), cfg.norm_tol)
        draw_seed, shuffle_seed = trial_seed(cfg, 0, 0, trial)
        return prep, lambda: simulate_trial(prep, draw_seed, shuffle_seed, cfg.c0,
                                            keep_matrices=keep_matrices)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("cell", range(4), ids=["se", "matern", "periodic", "permuted"])
    def test_matvec_and_norm_match_the_formed_difference(self, monkeypatch, d, cell):
        prep, run = self._trial(_OPERATOR_CELLS[d][cell], _OPERATOR_LAM[d], d, _OPERATOR_L[d])
        assert (prep.symbol is not None) == (d == 1) and prep.form is None
        seen = _captured_operators(monkeypatch)
        _, mats = run()
        truth = mats["truth"].entries
        rng = np.random.default_rng(11)
        assert len(seen) == 3
        for (op, norm), name in zip(seen, ("sample", "taper", "threshold")):
            diff = mats[name].entries - truth
            assert np.array_equal(op.dense(), diff)
            for v in (rng.standard_normal(op.n), np.ones(op.n)):
                want = diff @ v
                assert np.linalg.norm(op.matvec(v) - want) <= 1e-13 * np.linalg.norm(want)
            assert norm == pytest.approx(_dense_norm(diff), rel=1e-9)

    def test_each_estimate_term_takes_its_route(self, monkeypatch):
        # se at lambda 0.05, L=300: the Gram from the paths, the taper estimate
        # (dense band) by its dense product, the threshold estimate as CSR.
        prep, run = self._trial(KernelTemplate("se"), 0.05)
        built = []
        real = scipy.sparse.csr_array
        monkeypatch.setattr(scipy.sparse, "csr_array", lambda e: built.append(e) or real(e))
        _, mats = run()
        assert len(built) == 1 and built[0] is mats["threshold"].entries
        assert np.count_nonzero(mats["taper"].entries) > prep.C.n ** 2 // 8

    @pytest.mark.parametrize("kernel", ["se", "permuted"])
    def test_arpack_failure_falls_back_to_the_formed_difference(self, monkeypatch, kernel):
        prep, run = self._trial(KernelTemplate(kernel), _PLAIN_LAM, keep_matrices=False)
        shuffles = []
        real_shuffle = expmod.shuffle_cov
        monkeypatch.setattr(expmod, "shuffle_cov",
                            lambda C, seed: shuffles.append(seed) or real_shuffle(C, seed))
        record, _ = run()
        assert shuffles == []  # a converged sweep trial never builds the shuffled truth

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(covlab.diagnostics, "eigsh", no_convergence)
        fallen, _ = run()
        assert len(shuffles) == (3 if kernel == "permuted" else 0)  # one per dense solve
        monkeypatch.undo()
        _, mats = self._trial(KernelTemplate(kernel), _PLAIN_LAM)[1]()
        truth = mats["truth"].entries
        for name, got, near in (("sample", fallen.err_sample, record.err_sample),
                                ("taper", fallen.err_taper, record.err_taper),
                                ("threshold", fallen.err_thresh, record.err_thresh)):
            dense = _dense_norm(mats[name].entries - truth)
            assert got * prep.norm == pytest.approx(dense, rel=1e-13)
            assert near == pytest.approx(got, rel=1e-9)

    def test_clustered_top_cells_need_no_dense_solve(self, monkeypatch):
        # The figure cells where a formed threshold error made ARPACK give up:
        # with the operator's own restart cap every error norm converges.
        cells = [("se", 0.0033672295752114226), ("matern", 0.0033672295752114226),
                 ("periodic", 0.01519911082952933)]
        outcomes = []
        real_eigsh = covlab.diagnostics.eigsh

        def counted(A, **kwargs):
            try:
                out = real_eigsh(A, **kwargs)
            except scipy.sparse.linalg.ArpackError:
                outcomes.append("fallback")
                raise
            outcomes.append("converged")
            return out

        for kernel, lam in cells:
            prep, run = self._trial(KernelTemplate(kernel), lam, L=1250, keep_matrices=False)
            assert prep.form is None
            monkeypatch.setattr(covlab.diagnostics, "eigsh", counted)
            run()
            monkeypatch.undo()
        assert outcomes == ["converged"] * 3 * len(cells)

    def test_a_permuted_sweep_never_builds_the_shuffled_truth(self, monkeypatch):
        cfg = _cfg(kernels=(KernelTemplate("permuted"),), lambda_grid=(_PLAIN_LAM, 0.05),
                   L=_FORM_L, trials=2)
        want = run_sweep(cfg).records

        def refuse(C, seed):
            raise AssertionError("a sweep trial built the shuffled truth")

        monkeypatch.setattr(expmod, "shuffle_cov", refuse)
        result = run_sweep(cfg)
        assert result.ok and result.records == want


class _ActiveCounter:
    """Wraps functions with a count of calls in progress across threads."""

    def __init__(self):
        self.active = self.most = 0
        self.calls = Counter()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        def wrapped(*args, **kwargs):
            with self._lock:
                self.active += 1
                self.most = max(self.most, self.active)
                self.calls[name] += 1
            try:
                time.sleep(0.002)  # hands the GIL over: an unguarded stage would overlap here
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self.active -= 1
        return wrapped


_BLAS_STAGES = ("draw_paths", "sample_cov", "spectral_norm", "lowrank_update_norm")


class TestBlasTurns:
    @pytest.mark.parametrize("L, lams, stages", [
        (64, (0.01, 0.05, 0.2), _BLAS_STAGES[:3]),
        (_FORM_L, (_FORM_LAM, _PLAIN_LAM), _BLAS_STAGES),
    ], ids=["L64", "form"])
    def test_blas_stages_never_overlap(self, monkeypatch, tmp_path, L, lams, stages):
        cfg = _cfg(kernels=(KernelTemplate("se"), KernelTemplate("permuted")),
                   lambda_grid=lams, L=L, trials=3)
        emit_csv(list(run_sweep(cfg, threads=1).records), tmp_path / "serial.csv", kind="trials")
        counter = _ActiveCounter()
        for name in _BLAS_STAGES:
            monkeypatch.setattr(expmod, name, counter.wrap(name, getattr(expmod, name)))
        result = run_sweep(cfg, threads=3)
        emit_csv(list(result.records), tmp_path / "threaded.csv", kind="trials")
        assert result.ok
        assert counter.most == 1
        assert set(counter.calls) == set(stages)
        assert (tmp_path / "threaded.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_a_failing_trial_gives_up_the_lock(self, monkeypatch):
        cfg = _cfg(kernels=(KernelTemplate("se"), KernelTemplate("matern")),
                   lambda_grid=(0.05, 0.2), L=64, trials=3)
        serial = run_sweep(cfg)
        real_trial, real_norm = expmod.run_trial, expmod.spectral_norm
        cell = threading.local()

        def tagged(template, lam, cfg_, trial, prep=None):
            cell.key = (template.name, lam)
            return real_trial(template, lam, cfg_, trial, prep=prep)

        def failing(A, tol):
            if cell.key == ("matern", 0.05):
                raise ValueError("synthetic norm failure")
            return real_norm(A, tol=tol)

        monkeypatch.setattr(expmod, "run_trial", tagged)
        monkeypatch.setattr(expmod, "spectral_norm", failing)
        # A lock held past the failure would stall the other workers forever;
        # the join's timeout turns that into a failed assertion.
        out = []
        worker = threading.Thread(target=lambda: out.append(run_sweep(cfg, threads=3)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=60.0)
        stalled = worker.is_alive()
        while worker.is_alive():  # free the stalled pool, whose threads would block exit
            with contextlib.suppress(RuntimeError):
                expmod._BLAS_TURN.release()
            worker.join(timeout=0.1)
        assert not stalled and len(out) == 1
        result = out[0]
        assert len(result.failures) == cfg.trials
        assert all("kernel=matern lambda=0.05" in f and "synthetic norm failure" in f
                   for f in result.failures)
        assert result.records == tuple(r for r in serial.records
                                       if (r.kernel, r.lam) != ("matern", 0.05))


class TestSummarize:
    def _record(self, trial, es, et, eh, lam=0.05):
        return TrialRecord(
            kernel="se", lam=lam, d=1, L=48, N=15, trial=trial, seed=trial,
            kappa=0.1, rho_hat=0.2, err_sample=es, err_taper=et, err_thresh=eh,
        )

    def test_identical_trials_have_zero_halfwidth(self):
        rows = summarize([self._record(t, 1.5, 0.7, 0.9) for t in range(4)])
        assert len(rows) == 1
        row = rows[0]
        assert row.trials == 4
        assert row.mean_sample == pytest.approx(1.5)
        assert row.ci_sample == pytest.approx(0.0, abs=1e-12)

    def test_two_trial_t_quantile(self):
        rows = summarize(
            [self._record(0, 0.0, 0.0, 0.0), self._record(1, 2.0, 2.0, 2.0)]
        )
        assert rows[0].mean_sample == pytest.approx(1.0)
        assert rows[0].ci_sample == pytest.approx(12.706, rel=1e-3)

    def test_single_trial_has_no_interval(self):
        rows = summarize([self._record(0, 1.0, 1.0, 1.0)])
        assert rows[0].ci_sample is None
        assert rows[0].mean_sample == 1.0

    def test_groups_sorted_by_kernel_then_lambda(self):
        records = [
            self._record(0, 1.0, 1.0, 1.0, lam=0.2),
            self._record(0, 1.0, 1.0, 1.0, lam=0.05),
        ]
        rows = summarize(records)
        assert [r.lam for r in rows] == [0.05, 0.2]

    def test_rejects_inconsistent_group(self):
        a = self._record(0, 1.0, 1.0, 1.0)
        b = TrialRecord(
            kernel="se", lam=0.05, d=1, L=48, N=99, trial=1, seed=1,
            kappa=0.1, rho_hat=0.2, err_sample=1.0, err_taper=1.0,
            err_thresh=1.0,
        )
        with pytest.raises(UsageError):
            summarize([a, b])


class TestCsv:
    def test_trial_round_trip_is_exact(self, tmp_path):
        cfg = _cfg(trials=3)
        records = run_sweep(cfg).records
        # Estimators that did not run leave None, written 'na' and read back as None.
        not_run = [
            dataclasses.replace(r, rho_hat=None, err_taper=None, err_thresh=None)
            for r in records
        ]
        for rows in (records, not_run):
            path = tmp_path / "trials.csv"
            emit_csv(rows, path, kind="trials")
            text = path.read_text()
            assert text.splitlines()[0] == TRIAL_HEADER
            loaded = load_trials(path)
            assert len(loaded) == len(rows)
            for got, want in zip(loaded, rows):
                for field in (
                    "kernel", "lam", "d", "L", "N", "trial", "seed", "kappa",
                    "rho_hat", "err_sample", "err_taper", "err_thresh",
                ):
                    assert getattr(got, field) == getattr(want, field)
        assert text.count(",na") == 3 * len(not_run)

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:-2], ":3: expected 12 cells, got 10"),
        (lambda cells: cells + ["0.5"], ":3: expected 12 cells, got 13"),
        (lambda cells: cells[:5] + ["five"] + cells[6:], ":3: invalid literal for int()"),
    ], ids=["short", "long", "unparsable"])
    def test_malformed_row_names_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "trials.csv"
        emit_csv(run_sweep(_cfg(trials=2)).records, path, kind="trials")
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UsageError) as info:
            load_trials(path)
        assert str(info.value).startswith(f"{path}{message}")

    def test_summary_round_trip(self, tmp_path):
        cfg = _cfg(trials=3)
        rows = summarize(run_sweep(cfg).records)
        path = tmp_path / "summary.csv"
        emit_csv(rows, path, kind="summary")
        assert path.read_text().splitlines()[0] == SUMMARY_HEADER
        assert load_summaries(path) == rows

    def test_empty_needs_explicit_kind(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, kind="trials")
        assert path.read_text() == TRIAL_HEADER + "\n"

    def test_rows_written_in_canonical_order(self, tmp_path):
        cfg = _cfg(trials=2)
        records = list(run_sweep(cfg).records)
        shuffled = [records[1], records[0]]
        path = tmp_path / "trials.csv"
        emit_csv(shuffled, path, kind="trials")
        trials = [r.trial for r in load_trials(path)]
        assert trials == [0, 1]

    def test_single_trial_summary_ci_marker(self, tmp_path):
        row = SummaryRow(
            kernel="se", lam=0.05, N=15, trials=1, mean_sample=1.0,
            ci_sample=None, mean_taper=1.0, ci_taper=None, mean_thresh=1.0,
            ci_thresh=None,
        )
        path = tmp_path / "summary.csv"
        emit_csv([row], path, kind="summary")
        assert ",na" in path.read_text()
        assert load_summaries(path)[0].ci_sample is None

    def test_load_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(UsageError):
            load_trials(path)
        with pytest.raises(UsageError):
            load_summaries(path)

    def test_shortest_round_trip_decimals(self, tmp_path):
        row = SummaryRow(
            kernel="se", lam=0.1, N=5, trials=2, mean_sample=1 / 3,
            ci_sample=0.25, mean_taper=2 / 3, ci_taper=0.5, mean_thresh=0.1,
            ci_thresh=0.125,
        )
        path = tmp_path / "summary.csv"
        emit_csv([row], path, kind="summary")
        body = path.read_text().splitlines()[1]
        assert "0.3333333333333333" in body
        assert "0.1" in body.split(",")
