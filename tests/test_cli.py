"""Command-line interface: exit codes, resolved-config echo, file outputs."""

import argparse
import csv
import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covlab.cli
import covlab.diagnostics
import covlab.experiments
import covlab.minimax
from covlab import (
    BandedFamilySpec,
    ExperimentConfig,
    KernelTemplate,
    SquaredExponential,
    UsageError,
    build_grid,
    cholesky_psd,
    discretize,
    fisher_yates_permutation,
    gamma1,
    gamma2,
    load_matrix,
    load_summaries,
    load_trials,
    operator_quantities,
    run_trial,
    shuffle_cov,
)
from covlab.cli import build_parser, main, parse_config_file
from covlab.experiments import TRIAL_HEADER, format_value
from helpers import traced_peak_bytes


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, **overrides):
    values = {
        "kernel.list": "se",
        "sweep.lambda_grid": "0.2,0.5",
        "sweep.trials": "2",
        "sweep.L": "32",
    }
    values.update(overrides)
    path = tmp_path / "sweep.cfg"
    path.write_text("# test sweep\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestDiagnose:
    def test_basic_report(self, capsys):
        code, out, _ = _run(
            capsys, ["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "64"]
        )
        assert code == 0
        assert "# resolved config" in out
        assert "diagnose.kernel=se" in out
        assert "r_eff=" in out and "op_norm=" in out
        assert "gamma1.q1=" in out
        assert "m_star=" not in out and "gamma2=" not in out

    def test_optional_sections(self, capsys):
        code, out, _ = _run(capsys, [
            "diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "64",
            "--N", "100", "--q", "0.5", "--mc-samples", "64",
        ])
        assert code == 0
        assert "m_star=3" in out
        assert "eps_star=" in out
        assert "gamma1.q0.5=" in out
        assert "gamma2=" in out and "gamma2_se=" in out

    def test_nu_default_prints_the_report_without_nu(self, capsys):
        argv = ["diagnose", "--kernel", "se", "--lambda", "0.05", "--L", "64", "--N", "100"]
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        code, named, _ = _run(capsys, argv + ["--nu", "default"])
        assert code == 0
        assert named == plain

    def test_one_spectral_norm_per_report(self, capsys, monkeypatch):
        calls = []
        norm = covlab.diagnostics.spectral_norm

        def counted(A, *args, **kwargs):
            calls.append(A.entries.shape)
            return norm(A, *args, **kwargs)

        monkeypatch.setattr(covlab.diagnostics, "spectral_norm", counted)
        code, _, _ = _run(capsys, [
            "diagnose", "--kernel", "matern", "--lambda", "0.1", "--L", "64", "--q", "0.5",
        ])
        assert code == 0
        assert calls == [(64, 64)]

    def test_pwc_kernel(self, capsys):
        code, out, _ = _run(
            capsys, ["diagnose", "--kernel", "pwc", "--lambda", "0.1", "--L", "40"]
        )
        assert code == 0
        assert "trace_op=" in out

    def test_periodic_has_no_numeric_tail(self, capsys):
        code, _, err = _run(capsys, [
            "diagnose", "--kernel", "periodic", "--lambda", "0.1", "--L", "40",
            "--N", "10", "--nu", "numeric",
        ])
        assert code == 2
        assert "covlab: error:" in err and "Periodic" in err

    def test_pwc_has_no_numeric_tail(self, capsys):
        code, _, err = _run(capsys, [
            "diagnose", "--kernel", "pwc", "--lambda", "0.1", "--L", "40",
            "--N", "10", "--nu", "numeric",
        ])
        assert code == 2
        assert "covlab: error:" in err and "'pwc'" in err

    @pytest.mark.parametrize("seed", [0, 7])
    def test_permuted_is_the_seeded_shuffle_of_the_se_truth(self, capsys, seed):
        # gamma2 reads the Cholesky factor, which depends on the index order,
        # so another permutation (or none) changes its printed value.
        code, out, _ = _run(capsys, [
            "diagnose", "--kernel", "permuted", "--lambda", "0.05", "--L", "64",
            "--mc-samples", "64", "--seed", str(seed),
        ])
        assert code == 0
        C = shuffle_cov(discretize(SquaredExponential(0.05), build_grid(1, 64)), seed)[0]
        quant = operator_quantities(C)
        g2, g2_se = gamma2(cholesky_psd(C), 64, seed)
        expected = {"op_norm": quant.op_norm, "r_eff": quant.r_eff,
                    "gamma1.q1": gamma1(C, 1.0, op_norm=quant.op_norm),
                    "gamma2": g2, "gamma2_se": g2_se}
        for key, value in expected.items():
            assert f"\n{key}={format_value(value)}\n" in out

    @pytest.mark.parametrize("count", ["-1", "-5", "1"])
    def test_negative_mc_samples_exits_2(self, capsys, count):
        argv = ["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "16"]
        code, out, err = _run(capsys, argv + ["--mc-samples", count])
        assert code == 2
        assert f"--mc-samples must be 0 (off) or >= 2, got {count}" in err
        assert out == ""
        code, out, _ = _run(capsys, argv + ["--mc-samples", "0"])  # 0 still means off
        assert code == 0 and "gamma2=" not in out

    @pytest.mark.parametrize("flag, value, message", [
        ("--q", "0", "--q must lie in (0, 1], got 0.0"),
        ("--q", "1.5", "--q must lie in (0, 1], got 1.5"),
        ("--q", "nan", "--q must lie in (0, 1], got nan"),
        ("--N", "0", "sample count must be >= 1, got N=0"),
        ("--N", "-3", "sample count must be >= 1, got N=-3"),
    ], ids=["q0", "q1.5", "qnan", "N0", "N-3"])
    def test_bad_q_or_N_exits_2_before_any_output(self, capsys, flag, value, message):
        code, out, err = _run(capsys, ["diagnose", "--kernel", "se", "--lambda", "0.1",
                                       "--L", "16", flag, value])
        assert (code, out, err) == (2, "", f"covlab: error: {message}\n")

    def test_bad_kernel_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose", "--kernel", "cubic", "--lambda", "0.1", "--L", "40"])
        assert excinfo.value.code == 2


class TestEstimate:
    def test_all_estimators_with_dump(self, capsys, tmp_path):
        dump = tmp_path / "mats"
        code, out, _ = _run(capsys, [
            "estimate", "--kernel", "se", "--lambda", "0.2", "--L", "32",
            "--N", "8", "--estimator", "all", "--dump-matrices", str(dump),
        ])
        assert code == 0
        assert TRIAL_HEADER in out
        names = sorted(p.name for p in dump.iterdir())
        assert names == ["sample.covm", "taper.covm", "threshold.covm", "truth.covm"]
        truth = load_matrix(dump / "truth.covm")
        assert truth.shape == (32, 32)
        assert np.allclose(truth, truth.T)

    def test_unselected_estimators_print_na(self, capsys):
        code, out, _ = _run(capsys, [
            "estimate", "--kernel", "se", "--lambda", "0.2", "--L", "32",
            "--N", "8", "--estimator", "sample",
        ])
        assert code == 0
        row = out.strip().splitlines()[-1]
        assert row.split(",")[8] == "na"  # rho_hat
        assert row.split(",")[10] == "na" and row.split(",")[11] == "na"

    def test_taper_only_dump_skips_threshold(self, capsys, tmp_path):
        dump = tmp_path / "mats"
        code, _, _ = _run(capsys, [
            "estimate", "--kernel", "permuted", "--lambda", "0.2", "--L", "32",
            "--N", "8", "--estimator", "taper", "--dump-matrices", str(dump),
        ])
        assert code == 0
        names = sorted(p.name for p in dump.iterdir())
        assert names == ["sample.covm", "taper.covm", "truth.covm"]

    def test_permuted_dump_holds_the_shuffled_truth(self, capsys, tmp_path):
        # Trials apply the permuted truth through a scatter and a gather and
        # never form it; a dump still writes C[perm][:, perm] of the seeded
        # Fisher-Yates permutation, bit for bit.
        dump = tmp_path / "mats"
        code, _, _ = _run(capsys, [
            "estimate", "--kernel", "permuted", "--lambda", "0.05", "--L", "300",
            "--N", "10", "--estimator", "all", "--seed", "5", "--dump-matrices", str(dump),
        ])
        assert code == 0
        shuffle_seed = int(np.random.SeedSequence((5, 1)).generate_state(1, np.uint64)[0])
        perm = fisher_yates_permutation(300, shuffle_seed)
        base = discretize(SquaredExponential(0.05), build_grid(1, 300)).entries
        assert np.array_equal(load_matrix(dump / "truth.covm"), base[np.ix_(perm, perm)])

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, err = _run(capsys, [
            "estimate", "--kernel", "se", "--lambda", "0.2", "--L", "32",
            "--N", "0", "--estimator", "sample",
        ])
        assert code == 2
        assert "covlab: error:" in err

    def test_seeded_run_is_reproducible(self, capsys):
        argv = [
            "estimate", "--kernel", "se", "--lambda", "0.2", "--L", "32",
            "--N", "8", "--estimator", "all", "--seed", "11",
        ]
        _, out_a, _ = _run(capsys, argv)
        _, out_b, _ = _run(capsys, argv)
        assert out_a == out_b


class TestEstimateMatchesSweep:
    @pytest.mark.parametrize("kernel", ["se", "matern", "periodic"])
    def test_estimate_reproduces_a_sweep_row(self, capsys, tmp_path, monkeypatch, kernel):
        # estimate and sweep share one trial: a sweep row's seed, N, lambda
        # and L give the same taper radius and threshold level, and errors
        # within the sweep's norm tolerance (estimate's norm is tighter).
        monkeypatch.delenv("COVLAB_SEED", raising=False)
        cfg = _write_config(tmp_path, **{"kernel.list": kernel, "sweep.lambda_grid": "0.05,0.2",
                                         "sweep.L": "48"})
        code, _, _ = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in (rows[0], rows[-1]):
            code, out, _ = _run(capsys, [
                "estimate", "--kernel", kernel, "--lambda", row["lambda"], "--L", row["L"],
                "--N", row["N"], "--seed", row["seed"], "--estimator", "all",
            ])
            assert code == 0
            est = dict(zip(TRIAL_HEADER.split(","), out.strip().splitlines()[-1].split(",")))
            assert est["kappa"] == row["kappa"]
            assert est["rho_hat"] == row["rho_hat"]
            for key in ("err_sample", "err_taper", "err_thresh"):
                assert float(est[key]) == pytest.approx(float(row[key]), rel=1e-6, abs=0)


class TestSweepCommand:
    def test_writes_csv_pair(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, err = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(out_dir)]
        )
        assert code == 0
        assert "sweep.threads=1" in out
        trials = load_trials(out_dir / "trials.csv")
        assert len(trials) == 4
        rows = load_summaries(out_dir / "summary.csv")
        assert [r.lam for r in rows] == [0.2, 0.5]
        assert err.count("trial kernel=se") == 4
        assert not (out_dir / "se.svg").exists()

    def test_ends_with_one_summary_line(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, **{"sweep.lambda_grid": "0.003,0.01", "sweep.L": "300",
                                         "sweep.trials": "1"})
        code, _, err = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        last = err.splitlines()[-1]
        assert re.fullmatch(
            r"sweep: 2 trials, 0 failed, 1 of 2 cells on the low-rank norm, "
            r"\d+\.\d\d s, \d+\.\d\d trials/s", last), last

    def test_summary_line_follows_the_failures(self, capsys, tmp_path, monkeypatch):
        # bench.py counts failed trials by the lines that start "  kernel=".
        def failing(*args):
            raise ValueError("synthetic trial failure")

        monkeypatch.setattr(covlab.experiments, "adaptive_threshold", failing)
        cfg = _write_config(tmp_path)
        code, _, err = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        lines = err.splitlines()
        assert sum(line.startswith("  kernel=") for line in lines) == 4
        assert lines[-1].startswith("sweep: 4 trials, 4 failed, 0 of 2 cells ")

    def test_trial_whose_gram_has_a_nan_is_a_counted_failure(self, capsys, tmp_path, monkeypatch):
        real = covlab.experiments.draw_paths

        def with_nan(factor, N, seed):
            paths = real(factor, N, seed).copy()
            paths[0, 3] = np.nan
            return paths

        monkeypatch.setattr(covlab.experiments, "draw_paths", with_nan)
        cfg = ExperimentConfig(kernels=(KernelTemplate("se"),), lambda_grid=(0.2,), L=32)
        with pytest.raises(UsageError, match="non-finite"):
            run_trial(cfg.kernels[0], 0.2, cfg, 0)
        code, _, err = _run(
            capsys, ["sweep", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "o")]
        )
        assert code == 3
        lines = err.splitlines()
        failures = [line for line in lines if line.startswith("  kernel=")]
        assert len(failures) == 4 and all("non-finite entries" in line for line in failures)
        assert lines[-1].startswith("sweep: 4 trials, 4 failed, ")

    @pytest.mark.parametrize("overrides, message", [
        ({"kernel.list": "se,se"}, "config repeats kernel se"),
        ({"kernel.list": "se,se", "kernel.nu_list": "se,exp"}, "config repeats kernel se"),
        ({"sweep.lambda_grid": "0.2,0.5,0.2"}, "config repeats lengthscale 0.2"),
    ], ids=["kernel", "kernel-other-nu", "lambda"])
    def test_repeated_grid_entry_exits_2(self, capsys, tmp_path, overrides, message):
        code, out, err = _run(capsys, [
            "sweep", "--config", str(_write_config(tmp_path, **overrides)),
            "--out", str(tmp_path / "o"),
        ])
        assert (code, out, err) == (2, "", f"covlab: error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_plot_flag_adds_svg(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, _, _ = _run(capsys, [
            "sweep", "--config", str(cfg), "--out", str(out_dir), "--plot",
        ])
        assert code == 0
        assert (out_dir / "se.svg").exists()

    def test_env_seed_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        _, _, _ = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")])
        monkeypatch.setenv("COVLAB_SEED", "99")
        code, out, _ = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]
        )
        assert code == 0
        assert "sweep.base_seed=99" in out
        a = load_trials(tmp_path / "a" / "trials.csv")
        b = load_trials(tmp_path / "b" / "trials.csv")
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_invalid_env_seed(self, capsys, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        monkeypatch.setenv("COVLAB_SEED", "ten")
        code, _, err = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "COVLAB_SEED" in err

    def test_threads_flag_accepts_auto(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        code, _, _ = _run(capsys, [
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--threads", "auto",
        ])
        assert code == 0

    def test_threads_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(covlab.cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(covlab.cli.os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
        assert covlab.cli._parse_threads("auto") == 2
        monkeypatch.delattr(covlab.cli.os, "sched_getaffinity")
        assert covlab.cli._parse_threads("auto") == 8

    def test_header_names_each_blas_library_and_its_threads(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("COVLAB_SEED", raising=False)
        before = covlab.cli._blas_threads()
        cfg = _write_config(tmp_path)
        code, out, _ = _run(capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        line, = (l for l in out.splitlines() if l.startswith("sweep.blas="))
        entries = line[len("sweep.blas="):].split(",")
        assert entries == list(before) == list(covlab.cli._blas_threads())
        assert all(re.fullmatch(r"\S+:(\d+|unknown)", e) or e == "unknown" for e in entries)
        # Reading the counts changes no trial byte.
        direct = ExperimentConfig(kernels=(KernelTemplate("se"),), lambda_grid=(0.2, 0.5),
                                  trials=2, L=32)
        covlab.experiments.emit_csv(list(covlab.experiments.run_sweep(direct).records),
                                    tmp_path / "direct.csv", kind="trials")
        assert (tmp_path / "o" / "trials.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_blas_library_without_the_getter_reads_unknown(self, monkeypatch):
        monkeypatch.setattr(covlab.cli.ctypes, "CDLL", lambda path: object())
        entries = covlab.cli._blas_threads()
        assert entries == ("unknown",) or all(e.endswith(":unknown") for e in entries)

    def test_bad_threads_value(self, capsys, tmp_path):
        cfg = _write_config(tmp_path)
        code, _, err = _run(capsys, [
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--threads", "0",
        ])
        assert code == 2
        assert "--threads" in err


class TestConfigFile:
    def test_parses_lists_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# header\nkernel.list = se, matern # trailing\n"
            "sweep.lambda_grid = 0.1, 0.2\n\nsweep.trials=3\n"
        )
        values = parse_config_file(path)
        assert values["kernel.list"] == ("se", "matern")
        assert values["sweep.lambda_grid"] == (0.1, 0.2)
        assert values["sweep.trials"] == 3

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, **{"sweep.bogus": "1"})
        code, _, err = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "unknown config key" in err

    def test_norm_tol_is_not_a_setting(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, **{"sweep.norm_tol": "1e-8"})
        code, out, err = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2 and out == ""
        assert "unknown config key 'sweep.norm_tol'" in err

    def test_duplicate_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("kernel.list = se\nkernel.list = matern\n")
        code, _, err = _run(
            capsys, ["sweep", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "duplicate config key" in err

    def test_missing_required_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("kernel.list = se\n")
        code, _, err = _run(
            capsys, ["sweep", "--config", str(path), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "missing required keys" in err

    def test_unreadable_config_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "cannot read config" in err

    def test_unparsable_value_exits_2(self, capsys, tmp_path):
        cfg = _write_config(tmp_path, **{"sweep.trials": "many"})
        code, _, err = _run(
            capsys, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "cannot parse" in err

    def test_shipped_configs_parse(self):
        configs = Path(__file__).resolve().parent.parent / "configs"
        for name in ("figure_se_matern.cfg", "figure_periodic_shuffled.cfg"):
            values = parse_config_file(configs / name)
            assert values["sweep.trials"] == 30
            assert values["sweep.L"] == 1250
            assert len(values["sweep.lambda_grid"]) == 12


class TestMinimaxCheck:
    def test_f1_family(self, capsys):
        code, out, _ = _run(
            capsys, ["minimax-check", "--class", "f1", "--r", "16", "--N", "50"]
        )
        assert code == 0
        assert "members=17" in out
        assert "separation_exact.pass=true" in out

    def test_f2_family_small(self, capsys):
        code, out, _ = _run(capsys, [
            "minimax-check", "--class", "f2", "--r", "16", "--N", "50",
            "--samples", "3",
        ])
        assert code == 0
        assert "family=f2" in out
        assert "samples=3" in out
        assert "pairs=6" in out
        assert "alpha_min=" in out and "worst_kl=" in out
        assert ".pass=false" not in out

    def test_sparse_family_small(self, capsys):
        code, out, _ = _run(
            capsys, ["minimax-check", "--class", "sparse", "--samples", "2"]
        )
        assert code == 0
        assert "family=sparse" in out
        assert "capacity_mc.pass=true" in out
        assert ".pass=false" not in out

    @pytest.mark.parametrize("flags, message", [
        (["--r", "1"], "family needs r > 1, got r=1"),
        (["--r", "256", "--N", "1"], "diagonal family needs N > log r: N=1, log r=5.545"),
        (["--tau", "0.5"], "tau must lie in (0, 4^-(d+1)) = (0, 0.0625), got 0.5"),
    ], ids=["r1", "N1", "tau0.5"])
    def test_f1_refusals_exit_2(self, capsys, flags, message):
        code, out, err = _run(capsys, ["minimax-check", "--class", "f1"] + flags)
        assert code == 2
        assert out.startswith("# resolved config\n") and "family=" not in out
        assert err == f"covlab: error: {message}\n"

    def test_f1_default_tau_is_its_own(self, capsys, monkeypatch):
        # The linked families' default tau does not move f1's report.
        argv = ["minimax-check", "--class", "f1"]
        before = _run(capsys, argv)
        monkeypatch.setattr(BandedFamilySpec, "tau", 0.001)
        assert _run(capsys, argv) == before
        assert "minimax.tau=0.003\n" in before[1]

    def test_tau_rejected_for_sparse(self, capsys):
        code, _, err = _run(capsys, [
            "minimax-check", "--class", "sparse", "--samples", "1", "--tau", "0.1",
        ])
        assert code == 2
        assert "--tau" in err

    @pytest.mark.parametrize("family", ["f1", "f2", "f3", "sparse"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_fewer_than_one_sample_exits_2(self, capsys, family, samples):
        code, _, err = _run(capsys, ["minimax-check", "--class", family, "--samples", samples])
        assert code == 2
        assert f"--samples must be >= 1, got {samples}" in err
        assert "Traceback" not in err

    def test_infeasible_spec_exits_2(self, capsys):
        # f3 needs r below the truncation cell count; huge r cannot fit
        code, _, err = _run(capsys, [
            "minimax-check", "--class", "f3", "--r", "100000", "--N", "100",
            "--samples", "1",
        ])
        assert code == 2
        assert "covlab: error:" in err


def _parsed(text: str):
    """The value a printed text stands for: bool, None, int, float or str."""
    if text in ("true", "false", "na"):
        return {"true": True, "false": False, "na": None}[text]
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _report(out: str, prefix: str) -> list:
    """The (key, text) pairs printed after the sorted <prefix>.* header.

    Every line after '# resolved config' must be key=value with the text
    format_value gives its value; in the report, floats round-trip through
    float(), the counts are ints, and .pass values are true or false.
    """
    lines = out.splitlines()
    assert lines[0] == "# resolved config"
    pairs = [tuple(line.split("=", 1)) for line in lines[1:]]
    assert all(len(pair) == 2 and pair[0] for pair in pairs), lines
    assert all(format_value(_parsed(text)) == text for _, text in pairs)
    header = [key for key, _ in pairs if key.startswith(prefix)]
    assert [key for key, _ in pairs[:len(header)]] == header == sorted(header)
    report = pairs[len(header):]
    for key, text in report:
        if key.endswith(".pass"):
            assert text in ("true", "false"), (key, text)
        elif key == "family":
            assert text.isidentifier(), (key, text)
        elif key in ("members", "samples", "pairs", "m_star"):
            assert str(int(text)) == text, (key, text)
        else:
            assert repr(float(text)) == text, (key, text)
    return report


def _check_keys(names, slack: str) -> list:
    return [f"{name}.{part}" for name in names for part in ("pass", "measured", "bound", slack)]


def _minimax_keys(family: str, r: int, N: int) -> list:
    """The report keys of minimax-check, in order."""
    if family == "f1":
        return ["family", "members", "separation", "psd.pass", "separation_exact.pass"]
    assouad = ["hamming_two_ways", "witness_exact", "witness_lower_bound"]
    if family == "sparse":
        certs = ["lambda_min", "op_norm_unit", "gamma1_budget", "cap_vs_gamma2",
                 "capacity_mc", "support_product"]
        assouad += ["alpha_vs_ell_eps_over_r", "kl_vs_frobenius"]
    else:
        ms = BandedFamilySpec(kind=family, r=r, N=N, nu=covlab.cli._minimax_nu()).m_star
        certs = ["lifted_trace", "gershgorin_row_mass", "lambda_min", "l1_norm",
                 "r_eff_lower", "r_eff_upper"]
        certs += [f"tail_bound_m{m}" if m < ms else f"tail_zero_m{m}" for m in range(1, ms + 3)]
        assouad += ["kl_vs_frobenius"] + (["frobenius_budget"] if family == "f2" else [])
    return (["family", "samples"] + _check_keys(certs, "worst_slack")
            + ["pairs", "alpha_min", "worst_kl", "worst_frob2"] + _check_keys(assouad, "slack"))


class TestOutputContract:
    @pytest.mark.parametrize("extra, keys", [
        ([], []),
        (["--q", "0.5"], ["gamma1.q0.5"]),
        (["--mc-samples", "64"], ["gamma2", "gamma2_se"]),
        (["--N", "100"], ["m_star", "eps_star"]),
        (["--q", "0.5", "--mc-samples", "64", "--N", "100"],
         ["gamma1.q0.5", "gamma2", "gamma2_se", "m_star", "eps_star"]),
    ], ids=["plain", "q", "mc", "N", "all"])
    def test_diagnose(self, capsys, extra, keys):
        code, out, _ = _run(capsys, ["diagnose", "--kernel", "se", "--lambda", "0.1",
                                     "--L", "64"] + extra)
        assert code == 0
        want = ["trace_op", "op_norm", "r_eff", "gamma1.q0.5", "gamma1.q1",
                "gamma2", "gamma2_se", "m_star", "eps_star"]
        keep = {"trace_op", "op_norm", "r_eff", "gamma1.q1", *keys}
        assert [key for key, _ in _report(out, "diagnose.")] == [k for k in want if k in keep]

    @pytest.mark.parametrize("family, r, N, samples", [
        ("f1", 16, 50, 20), ("f2", 16, 50, 2), ("f3", 16, 100000, 2), ("sparse", 63, 7, 1),
    ])
    def test_minimax_check(self, capsys, family, r, N, samples):
        argv = ["minimax-check", "--class", family, "--samples", str(samples)]
        if family != "sparse":
            argv += ["--r", str(r), "--N", str(N)]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        report = _report(out, "minimax.")
        assert [key for key, _ in report] == _minimax_keys(family, r, N)
        assert {text for key, text in report if key.endswith(".pass")} == {"true"}

    def test_a_failing_check_prints_false_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(covlab.minimax, "_TAIL_CONST", 0.0)
        code, out, _ = _run(capsys, ["minimax-check", "--class", "f2", "--r", "16",
                                     "--N", "50", "--samples", "2"])
        assert code == 1
        report = dict(_report(out, "minimax."))
        assert report["tail_bound_m1.pass"] == "false"
        assert float(report["tail_bound_m1.worst_slack"]) < 0.0

    def test_f1_separation_below_member_precision_passes(self, capsys):
        # At tau=1e-8 the member entry 1 - delta carries delta (5.3e-6) to
        # 4.8e-17 absolute, 9.1e-12 relative; the check is absolute, as the
        # entries are O(1), so the family is valid at both taus.
        argv = ["minimax-check", "--class", "f1", "--r", "16", "--N", "1000", "--tau"]
        for tau in ("1e-8", "1e-6"):
            code, out, err = _run(capsys, argv + [tau])
            assert code == 0 and err == ""
            report = _report(out, "minimax.")
            assert [key for key, _ in report] == _minimax_keys("f1", 16, 1000)
            assert {text for key, text in report if key.endswith(".pass")} == {"true"}


class TestMemory:
    def test_grid_beyond_physical_memory_exits_2(self, capsys):
        # n = 1250^2 points: one n x n matrix would take 17.8 TiB.
        code, _, err = _run(
            capsys, ["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "1250", "--d", "2"]
        )
        assert code == 2
        assert "covlab: error: grid of 1562500 points needs 18189.9 GiB" in err
        assert "Traceback" not in err

    def test_memory_error_is_one_line_exit_1(self, capsys, monkeypatch):
        def discretize(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.5 MiB")

        monkeypatch.setattr(covlab.cli, "discretize", discretize)
        code, _, err = _run(capsys, ["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "16"])
        assert code == 1
        assert err == "covlab: out of memory\n"

    def test_f1_report_builds_no_member(self, capsys):
        # One 256 x 256 member is 512 kB; building all 257 took 135.9 MB.
        peak = traced_peak_bytes(lambda: main(["minimax-check", "--class", "f1"]))
        assert "members=257" in capsys.readouterr().out
        assert peak < 1 << 20


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "8", "--frob"])
        assert excinfo.value.code == 2

    def test_a_second_call_leaves_no_parser_garbage(self, capsys):
        # An argparse parser is full of reference cycles; one built per call
        # would leave hundreds of objects to the collector each time.
        argv = ["estimate", "--kernel", "se", "--lambda", "0.1", "--L", "8", "--N", "0",
                "--estimator", "sample"]
        assert main(argv) == 2
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 2
            gc.collect()
            leftovers = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leftovers == []


# commands that draw with their seed, each at a size that runs in well under a second
_SEEDED_COMMANDS = {
    "diagnose-permuted": ["diagnose", "--kernel", "permuted", "--lambda", "0.1", "--L", "16"],
    "estimate": ["estimate", "--kernel", "se", "--lambda", "0.2", "--L", "16", "--N", "4",
                 "--estimator", "all"],
    "minimax-f2": ["minimax-check", "--class", "f2", "--r", "16", "--N", "50", "--samples", "1"],
    "minimax-sparse": ["minimax-check", "--class", "sparse", "--samples", "1"],
}


class TestSeed:
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", list(_SEEDED_COMMANDS))
    def test_negative_seed_exits_2(self, capsys, monkeypatch, command, source):
        argv = list(_SEEDED_COMMANDS[command])
        if source == "flag":
            monkeypatch.delenv("COVLAB_SEED", raising=False)
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("COVLAB_SEED", "-1")
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert (out, err) == ("", "covlab: error: seed must be >= 0, got -1\n")


class TestHeader:
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "16"],
        ["estimate", "--kernel", "se", "--lambda", "0.2", "--L", "16", "--N", "4",
         "--estimator", "sample"],
        ["minimax-check", "--class", "f1", "--r", "16", "--N", "50"],
        ["minimax-check", "--class", "sparse", "--samples", "1"],
        ["sweep"],
    ], ids=["diagnose", "estimate", "minimax-f1", "minimax-sparse", "sweep"])
    def test_every_flag_appears_in_the_header(self, capsys, tmp_path, argv):
        if argv == ["sweep"]:
            argv = argv + ["--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "o")]
        subcommands, = (a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in subcommands.choices[argv[0]]._actions} - {"help"}
        names = {"lam": "lambda", "family": "class"}
        wanted = {names.get(dest, dest) for dest in dests}
        code, out, _ = _run(capsys, argv)
        assert code == 0
        prefix = argv[0].split("-")[0] + "."
        header = {line.split("=", 1)[0][len(prefix):]
                  for line in out.splitlines() if line.startswith(prefix)}
        if "sparse" in argv:  # tau applies to the banded families only
            wanted.discard("tau")
            assert "tau" not in header
        assert wanted <= header


class TestImport:
    def test_the_cli_does_not_import_scipy_stats(self):
        # scipy.stats alone added about 0.3-0.5 s to every covlab process's
        # start; the summary's Student-t quantile comes from scipy.special.
        src = str(Path(covlab.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = ("import sys, covlab.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
