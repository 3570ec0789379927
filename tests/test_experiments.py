"""Sweep harness: seeding, trial runs, aggregation, and CSV round trips."""

import dataclasses
import math
import threading

import numpy as np
import pytest

import covlab.experiments as expmod
from covlab import (
    ExperimentConfig,
    KernelTemplate,
    SummaryRow,
    TrialRecord,
    UsageError,
    emit_csv,
    load_summaries,
    load_trials,
    n_for_lambda,
    run_sweep,
    run_trial,
    summarize,
    trial_seed,
)
from covlab.experiments import SUMMARY_HEADER, TRIAL_HEADER, kernel_for


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
        assert rec.r_eff > 0

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


class TestSummarize:
    def _record(self, trial, es, et, eh, lam=0.05):
        return TrialRecord(
            kernel="se", lam=lam, d=1, L=48, N=15, trial=trial, seed=trial,
            kappa=0.1, rho_hat=0.2, err_sample=es, err_taper=et, err_thresh=eh,
            r_eff=10.0,
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
            err_thresh=1.0, r_eff=10.0,
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
            emit_csv(rows, path)
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
            # the persisted schema intentionally omits the derived r_eff column
            assert all(math.isnan(r.r_eff) for r in loaded)
        assert text.count(",na") == 3 * len(not_run)

    def test_summary_round_trip(self, tmp_path):
        cfg = _cfg(trials=3)
        rows = summarize(run_sweep(cfg).records)
        path = tmp_path / "summary.csv"
        emit_csv(rows, path)
        assert path.read_text().splitlines()[0] == SUMMARY_HEADER
        assert load_summaries(path) == rows

    def test_empty_needs_explicit_kind(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(UsageError):
            emit_csv([], path)
        emit_csv([], path, kind="trials")
        assert path.read_text() == TRIAL_HEADER + "\n"

    def test_rows_written_in_canonical_order(self, tmp_path):
        cfg = _cfg(trials=2)
        records = list(run_sweep(cfg).records)
        shuffled = [records[1], records[0]]
        path = tmp_path / "trials.csv"
        emit_csv(shuffled, path)
        trials = [r.trial for r in load_trials(path)]
        assert trials == [0, 1]

    def test_single_trial_summary_ci_marker(self, tmp_path):
        row = SummaryRow(
            kernel="se", lam=0.05, N=15, trials=1, mean_sample=1.0,
            ci_sample=None, mean_taper=1.0, ci_taper=None, mean_thresh=1.0,
            ci_thresh=None,
        )
        path = tmp_path / "summary.csv"
        emit_csv([row], path)
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
        emit_csv([row], path)
        body = path.read_text().splitlines()[1]
        assert "0.3333333333333333" in body
        assert "0.1" in body.split(",")
