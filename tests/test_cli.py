"""Command-line interface: exit codes, resolved-config echo, file outputs."""

import csv
from pathlib import Path

import numpy as np
import pytest

import covlab.cli
import covlab.diagnostics
from covlab import load_matrix, load_summaries, load_trials
from covlab.cli import main, parse_config_file
from covlab.experiments import TRIAL_HEADER


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
            calls.append(A.shape)
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

    def test_tau_rejected_for_sparse(self, capsys):
        code, _, err = _run(capsys, [
            "minimax-check", "--class", "sparse", "--samples", "1", "--tau", "0.1",
        ])
        assert code == 2
        assert "--tau" in err

    def test_infeasible_spec_exits_2(self, capsys):
        # f3 needs r below the truncation cell count; huge r cannot fit
        code, _, err = _run(capsys, [
            "minimax-check", "--class", "f3", "--r", "100000", "--N", "100",
            "--samples", "1",
        ])
        assert code == 2
        assert "covlab: error:" in err


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


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose", "--kernel", "se", "--lambda", "0.1", "--L", "8", "--frob"])
        assert excinfo.value.code == 2
