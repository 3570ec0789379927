"""covlab benchmark: sweeps and one-shot commands driven through covlab.cli.main.

Run one workload (its own process, one batch of whole rounds):

    python3 benchmarks/bench.py --workload sweep-narrow --seed 1 --seconds 10 --trace 0

or every workload, each in a child process, with ``--workload all``.
``--smoke`` shrinks every workload to L=64 so the whole set runs in seconds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer metrics of a traced
run.  See benchmarks/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import StampedStream, Tracer  # noqa: E402

# Lengthscales of configs/figure_se_matern.cfg, copied so that the
# benchmark's inputs stay fixed when the shipped config changes.
FIGURE_LAMBDAS = (
    0.001, 0.0018350012466511903, 0.0033672295752114226, 0.006178870468273718,
    0.011338235012178491, 0.020805675382171703, 0.03817844026370504,
    0.07005748547909675, 0.1285555731913902, 0.23589963707015932,
    0.4328761281083057, 0.7943282347242815,
)
NARROW = FIGURE_LAMBDAS[:3]
WIDE = FIGURE_LAMBDAS[-4:]
FULL_L = 1250
SMOKE_L = 64
# A sweep run repeats the same sweep at least this often, so that wall and
# set-up times are true medians of several samples.
MIN_SWEEP_ROUNDS = 3
# One trial per cell keeps a round short, so a run holds several rounds.
TRIALS_PER_CELL = 1


@dataclass(frozen=True)
class SweepWorkload:
    kernels: tuple
    lambdas: tuple
    threads: int


WORKLOADS = {
    "sweep-narrow": SweepWorkload(("se", "matern"), NARROW, threads=1),
    "sweep-narrow-2t": SweepWorkload(("se", "matern"), NARROW, threads=2),
    "sweep-wide": SweepWorkload(("se", "matern", "periodic", "permuted"), WIDE, threads=1),
    "cli-oneshot": None,
}

# cli-oneshot: fixed lengthscales and sample counts; only --seed varies.
DIAG_LAMBDA = 0.01
DIAG_N = 100
# The SE estimate runs at five seeds (seed .. seed+4) so that its set-up
# and trial rate are medians of several samples.
EST_SE = ("se", 0.001, 35)
EST_SE_SEEDS = 5
EST_PERMUTED = ("permuted", 0.01, 24)
MINIMAX_FAMILIES = ("f1", "f2", "f3", "sparse")
MINIMAX_SAMPLES = 50
SMOKE_MINIMAX_SAMPLES = 4


@dataclass
class Round:
    wall: float
    setups: list  # from a command's start to its first path draw
    rates: list  # trials per second after set-up, one per command that ran trials
    trials: int
    attempted: int
    failed: int
    outputs: dict = field(default_factory=dict)  # cli: command index -> (rc, stdout, stderr)
    cmd_wall: dict = field(default_factory=dict)  # cli: summed wall time per subcommand
    progress_lags: list = field(default_factory=list)


class SetupMarker:
    """Notes when the first sample paths of a command are drawn.

    Set-up (discretize, Cholesky, operator norm, taper radius) ends there:
    ``run_trial`` and ``cmd_estimate`` both begin their trial by drawing.
    """

    BINDINGS = ("covlab.experiments", "covlab.cli")

    def __init__(self) -> None:
        self.first = None
        self._saved = []

    def install(self) -> None:
        for name in self.BINDINGS:
            module = sys.modules[name]
            original = module.draw_paths

            def hook(*args, _original=original, **kwargs):
                if self.first is None:
                    self.first = time.perf_counter()
                return _original(*args, **kwargs)

            module.draw_paths = hook
            self._saved.append((module, original))

    def uninstall(self) -> None:
        for module, original in self._saved:
            module.draw_paths = original
        self._saved = []


def machine_block(seed: int) -> dict:
    import numpy
    import scipy

    blas = []
    for pkg in (numpy, scipy):
        for lib in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*")):
            handle = ctypes.CDLL(lib)
            suffix = "64_" if "openblas64_" in os.path.basename(lib) else ""
            entry = {"owner": pkg.__name__, "library": os.path.basename(lib)}
            try:
                get_threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
                get_config = getattr(handle, f"scipy_openblas_get_config{suffix}")
            except AttributeError:  # another OpenBLAS build: name it, report nothing else
                blas.append(entry)
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            entry.update(config=get_config().decode(), threads=get_threads())
            blas.append(entry)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def write_config(path: Path, wl: SweepWorkload, L: int, seed: int) -> None:
    path.write_text(
        f"kernel.list = {','.join(wl.kernels)}\n"
        "kernel.matern_smoothness = 1.5\n"
        "kernel.periodic_period = 0.4\n"
        f"sweep.lambda_grid = {','.join(repr(v) for v in wl.lambdas)}\n"
        f"sweep.trials = {TRIALS_PER_CELL}\n"
        f"sweep.L = {L}\n"
        "sweep.d = 1\n"
        "sweep.n_mult = 5.0\n"
        f"sweep.base_seed = {seed}\n"
        "estimator.c0 = 2.0\n"
    )


def run_cli(main, argv, err) -> tuple:
    """Run covlab's entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            rc = -1
    return rc, out.getvalue()


def sweep_round(main, marker, wl: SweepWorkload, cfg: Path, out: Path, tracer) -> Round:
    """One `covlab sweep` call; tracer is None in the untraced run."""
    ntrials = len(wl.kernels) * len(wl.lambdas) * TRIALS_PER_CELL
    err = StampedStream() if tracer else io.StringIO()
    if tracer:
        tracer.trial_ends.clear()
    marker.first = None
    start = time.perf_counter()
    rc, _ = run_cli(main, ["sweep", "--config", str(cfg), "--out", str(out),
                           "--threads", str(wl.threads), "--plot"], err)
    end = time.perf_counter()
    if rc == 0:
        failed = 0
    elif rc == 3:
        failed = sum(1 for line in err.getvalue().splitlines() if line.startswith("  kernel="))
    else:
        failed = ntrials
    setup = (marker.first if marker.first is not None else end) - start
    return Round(
        wall=end - start, setups=[setup], rates=[(ntrials - failed) / (end - start - setup)],
        trials=ntrials - failed, attempted=ntrials, failed=failed,
        progress_lags=[err.progress[k] - tracer.trial_ends[k]
                       for k in err.progress if k in tracer.trial_ends] if tracer else [],
    )


def oneshot_commands(L: int, seed: int, samples: int, dump: Path) -> list:
    cmds = [
        ("diagnose", ["diagnose", "--kernel", "matern", "--lambda", repr(DIAG_LAMBDA), "--L", str(L),
                      "--q", "0.5", "--mc-samples", "2000", "--N", str(DIAG_N), "--seed", str(seed)]),
        ("diagnose", ["diagnose", "--kernel", "se", "--lambda", repr(DIAG_LAMBDA), "--L", str(L),
                      "--nu", "numeric", "--N", str(DIAG_N), "--seed", str(seed)]),
    ]
    for kernel, lam, N, s, extra in (
        [(*EST_SE, seed + k, []) for k in range(EST_SE_SEEDS)]
        + [(*EST_PERMUTED, seed, ["--dump-matrices", str(dump)])]
    ):
        cmds.append(("estimate", ["estimate", "--kernel", kernel, "--lambda", repr(lam),
                                  "--L", str(L), "--N", str(N), "--estimator", "all",
                                  "--seed", str(s)] + extra))
    for family in MINIMAX_FAMILIES:
        cmds.append(("minimax_check", ["minimax-check", "--class", family,
                                       "--samples", str(samples), "--seed", str(seed)]))
    return cmds


def oneshot_round(main, marker, cmds: list) -> Round:
    """All one-shot commands once.  Set-up and trial time come from the
    plain SE estimates; the permuted one also writes 50 MB of dumps."""
    setups, rates = [], []
    trials = failed = 0
    outputs, cmd_wall = {}, {}
    start = time.perf_counter()
    for i, (kind, argv) in enumerate(cmds):
        err = io.StringIO()
        marker.first = None
        t0 = time.perf_counter()
        rc, text = run_cli(main, argv, err)
        t1 = time.perf_counter()
        cmd_wall[kind] = cmd_wall.get(kind, 0.0) + (t1 - t0)
        outputs[i] = (rc, text, err.getvalue())
        if rc != 0:
            failed += 1
        elif kind == "estimate" and "--dump-matrices" not in argv:
            first = marker.first if marker.first is not None else t1
            setups.append(first - t0)
            rates.append(1.0 / (t1 - first))
            trials += 1
    end = time.perf_counter()
    return Round(wall=end - start, setups=setups, rates=rates, trials=trials,
                 attempted=len(cmds), failed=failed, outputs=outputs, cmd_wall=cmd_wall)


def check_oneshot(cmds: list, rnd: Round, L: int, samples: int, dump: Path, rng) -> None:
    """Every output against its closed forms; one seeded SE estimate and the
    dumped matrices also against dense recomputation."""
    se_runs = [i for i, (kind, argv) in enumerate(cmds)
               if kind == "estimate" and "--dump-matrices" not in argv]
    dense_se = se_runs[rng.randrange(len(se_runs))]
    for i, (kind, argv) in enumerate(cmds):
        rc, text, _ = rnd.outputs[i]
        if rc != 0:
            continue  # counted in `failed`
        opt = dict(zip(argv[1::2], argv[2::2]))
        if kind == "diagnose":
            checks.check_diagnose(text, opt["--kernel"], float(opt["--lambda"]), int(opt["--N"]))
        elif kind == "estimate" and "--dump-matrices" in opt:
            checks.check_dump(text, dump, L)
        elif kind == "estimate":
            checks.check_estimate(text, opt["--kernel"], float(opt["--lambda"]), L,
                                  int(opt["--N"]), int(opt["--seed"]), dense=i == dense_se)
        else:
            checks.check_minimax(text, opt["--class"], samples)


def check_serial_trials(wl: SweepWorkload, L: int, seed: int, out: Path, rng) -> None:
    """A seeded record of the threaded sweep must equal a serial run_trial call bit for bit."""
    from covlab.experiments import ExperimentConfig, KernelTemplate, run_trial

    cfg = ExperimentConfig(
        kernels=tuple(KernelTemplate(name=k) for k in wl.kernels),
        lambda_grid=wl.lambdas, L=L, trials=TRIALS_PER_CELL, base_seed=seed,
    )
    rows = {(r["kernel"], float(r["lambda"]), int(r["trial"])): r
            for r in checks.read_trials(out / "trials.csv")}
    template = cfg.kernels[rng.randrange(len(cfg.kernels))]
    lam = cfg.lambda_grid[rng.randrange(len(cfg.lambda_grid))]
    trial = rng.randrange(TRIALS_PER_CELL)
    rec = run_trial(template, lam, cfg, trial)
    row = rows[(template.name, lam, trial)]
    for key in ("seed", "kappa", "rho_hat", "err_sample", "err_taper", "err_thresh"):
        checks.expect(row[key] == str(getattr(rec, key)),
                      f"threaded record {template.name} {lam} {trial}: {key} {row[key]} "
                      f"differs from serial run_trial {getattr(rec, key)!r}")


def check_oneshot_rounds(cmds, rounds, L, samples, dump, rng) -> None:
    """The first round against independent recomputation; later rounds must repeat it."""
    check_oneshot(cmds, rounds[0], L, samples, dump, rng)
    first = [o[:2] for o in rounds[0].outputs.values()]
    for rnd in rounds[1:]:
        checks.expect([o[:2] for o in rnd.outputs.values()] == first,
                      "one-shot outputs differ between rounds")


def check_sweep_rounds(name, wl, rounds, outs, L, seed, rng) -> None:
    """The first round against independent recomputation; later rounds must repeat it."""
    checks.check_sweep(outs[0], wl.kernels, wl.lambdas, L, TRIALS_PER_CELL, seed, rng,
                       expected_rows=rounds[0].trials, narrow=name == "sweep-narrow")
    first = (outs[0] / "trials.csv").read_bytes()
    for out in outs[1:]:
        checks.expect((out / "trials.csv").read_bytes() == first,
                      f"{out.name}/trials.csv differs from the first round")
    if wl.threads > 1:
        check_serial_trials(wl, L, seed, outs[0], rng)


def run_rounds(do_round, seconds: float, min_rounds: int) -> list:
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        rounds.append(do_round())
    return rounds


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    n = len(traced)
    stats = tracer.stats

    def total(name, kind="inclusive_s"):
        st = stats.get(name)
        return getattr(st, kind) / n if st else 0.0

    def calls(name):
        st = stats.get(name)
        return st.calls / n if st else 0

    def p50(values):
        return statistics.median(values) if values else 0.0

    lags = [lag for rnd in traced for lag in rnd.progress_lags]
    run_trial = stats.get("experiments.run_trial")
    m = {
        "grid_kernel.discretize_s": total("grid_kernel.discretize"),
        "grid_kernel.taper_weight_matrix_s": total("grid_kernel.taper_weight_matrix"),
        "grid_kernel.fisher_yates_permutation_s": total("grid_kernel.fisher_yates_permutation"),
        "sampling.cholesky_psd_s": total("sampling.cholesky_psd"),
        "sampling.draw_paths_s": total("sampling.draw_paths"),
        "sampling.sample_cov_s": total("sampling.sample_cov"),
        "sampling.sample_cov_calls": calls("sampling.sample_cov"),
        "estimators.taper_estimate_self_s": total("estimators.taper_estimate", "self_s"),
        "estimators.adaptive_threshold_self_s": total("estimators.adaptive_threshold", "self_s"),
        "estimators.threshold_estimate_s": total("estimators.threshold_estimate"),
        "diagnostics.spectral_norm_s": total("diagnostics.spectral_norm"),
        "diagnostics.spectral_norm_calls": calls("diagnostics.spectral_norm"),
        "diagnostics.operator_quantities_self_s": total("diagnostics.operator_quantities", "self_s"),
        "diagnostics.gamma1_self_s": total("diagnostics.gamma1", "self_s"),
        "diagnostics.gamma2_s": total("diagnostics.gamma2"),
        "diagnostics.m_star_s": total("diagnostics.m_star"),
        "diagnostics.kl_gaussian_s": total("diagnostics.kl_gaussian"),
        "experiments.run_trial_p50_s": p50(run_trial.durations if run_trial else []),
        "experiments.progress_lag_p50_s": p50(lags),
        "experiments.emit_csv_s": total("experiments.emit_csv"),
        "experiments.summarize_s": total("experiments.summarize"),
        "minimax.certify_banded_membership_s": total("minimax.certify_banded_membership"),
        "minimax.certify_sparse_membership_s": total("minimax.certify_sparse_membership"),
        "minimax.assouad_terms_s": total("minimax.assouad_terms"),
        "matrixio.dump_matrix_s": total("matrixio.dump_matrix"),
        "matrixio.bytes_written": tracer.bytes_written / n,
        "svgplot.emit_svg_s": total("svgplot.emit_svg"),
        "cli.diagnose_s": sum(r.cmd_wall.get("diagnose", 0.0) for r in traced) / n,
        "cli.estimate_s": sum(r.cmd_wall.get("estimate", 0.0) for r in traced) / n,
        "cli.minimax_check_s": sum(r.cmd_wall.get("minimax_check", 0.0) for r in traced) / n,
        "trace.overhead_s": statistics.median(r.wall for r in traced)
        - statistics.median(r.wall for r in untraced),
    }
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in m.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_calls"):
        return "count"
    if name.endswith("bytes_written"):
        return "bytes"
    return "s"


def end_to_end_metrics(rounds: list, peak_rss_mb: float) -> dict:
    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": {"value": median([r.wall for r in rounds]), "unit": "s"},
        "setup_s": {"value": median([v for r in rounds for v in r.setups]), "unit": "s"},
        "trials_per_s": {"value": median([v for r in rounds for v in r.rates]), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "covlab" / "__init__.py").is_file():
        print(f"bench: no covlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t_import = time.perf_counter()
    from covlab.cli import main
    import_s = time.perf_counter() - t_import

    L = SMOKE_L if args.smoke else FULL_L
    samples = SMOKE_MINIMAX_SAMPLES if args.smoke else MINIMAX_SAMPLES
    rng = random.Random(args.seed)
    work = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    marker = SetupMarker()
    tracer = Tracer()
    wl = WORKLOADS[args.workload]
    dump = work / "dump"
    outs = []
    if wl is None:
        cmds = oneshot_commands(L, args.seed, samples, dump)
        do_round = lambda traced: oneshot_round(main, marker, cmds)
        min_rounds = 1
    else:
        cfg = work / "sweep.cfg"
        write_config(cfg, wl, L, args.seed)

        def do_round(traced):
            outs.append(work / f"round{len(outs)}")
            return sweep_round(main, marker, wl, cfg, outs[-1], tracer if traced else None)

        min_rounds = MIN_SWEEP_ROUNDS
    try:
        marker.install()
        rounds = run_rounds(lambda: do_round(False), args.seconds, min_rounds)
        marker.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = []
        if args.trace:
            tracer.install()
            marker.install()
            traced = run_rounds(lambda: do_round(True), args.seconds, min_rounds)
            marker.uninstall()
            tracer.uninstall()
        try:
            if wl is None:
                check_oneshot_rounds(cmds, rounds + traced, L, samples, dump, rng)
            else:
                check_sweep_rounds(args.workload, wl, rounds + traced, outs, L, args.seed, rng)
            correct = True
        except Exception as exc:  # noqa: BLE001 - any fault while checking is a failed check
            print(f"bench: check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    info = machine_block(args.seed)
    info.update(workload=args.workload, L=L, covlab_import_s=import_s,
                round_wall_s=[r.wall for r in rounds], round_setup_s=[r.setups for r in rounds],
                round_command_s=[r.cmd_wall for r in rounds],
                traced_round_wall_s=[r.wall for r in traced])
    print("machine " + json.dumps(info))
    metrics = layer_metrics(tracer, traced, rounds) if args.trace else end_to_end_metrics(
        rounds, peak_rss_mb)
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:42s} {m['value']:.6g} {m['unit']}")
    every = rounds + traced
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep starting rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at L=64, in seconds")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


if __name__ == "__main__":
    _args = parse_args()
    sys.exit(run_all(_args) if _args.workload == "all" else run_workload(_args))
