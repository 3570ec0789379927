"""Command-line front end: diagnostics, sweeps, certificates, single runs.

Exit codes are a stable scripting contract: 0 success, 1 numeric failure,
2 usage or configuration error, 3 partial sweep failure.  Every command
prints its fully resolved configuration before doing any work.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from .errors import CovlabError, NumericError, UsageError
from .diagnostics import NuSequence, eps_star, gamma1, gamma2, m_star, operator_quantities
from .experiments import (
    KERNEL_NAMES,
    NU_SOURCES,
    ExperimentConfig,
    KernelTemplate,
    TRIAL_HEADER,
    build_prep,
    emit_csv,
    format_value,
    kernel_for,
    nu_for,
    run_sweep,
    simulate_trial,
    summarize,
    trial_row,
)
from .grid_kernel import PiecewiseConstant, build_grid, discretize, shuffle_cov
from .matrixio import dump_matrix
from .minimax import (
    DIAGONAL_TAU,
    BandedFamilySpec,
    SparseFamilySpec,
    assouad_terms,
    certify_banded_membership,
    certify_sparse_membership,
    diagonal_separation,
    flip_bit,
    sample_banded_theta,
    sample_sparse_theta,
)
from .sampling import cholesky_psd
# Unused here; kept bound because benchmarks/bench.py hooks draw_paths in this module.
from .sampling import draw_paths  # noqa: F401
from .svgplot import emit_svg

__all__ = ["main"]

_DIAG_KERNELS = KERNEL_NAMES + ("pwc",)
_PWC_CELLS = 10  # the pwc diagnostic uses a fixed identity lift of this size


def _strings(raw: str) -> tuple:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in _strings(raw))


# Flat config registry: key -> (parser, default).  None means "required";
# every other default is the one of the dataclass field the key sets.  Each
# sweep.* key sets the ExperimentConfig field of the same name.
_CONFIG_KEYS = {
    "kernel.list": (_strings, None),
    "kernel.nu_list": (_strings, ()),
    "kernel.matern_smoothness": (float, KernelTemplate.smoothness),
    "kernel.periodic_period": (float, KernelTemplate.period),
    "sweep.lambda_grid": (_floats, None),
    "sweep.trials": (int, ExperimentConfig.trials),
    "sweep.L": (int, ExperimentConfig.L),
    "sweep.d": (int, ExperimentConfig.d),
    "sweep.n_mult": (float, ExperimentConfig.n_mult),
    "sweep.base_seed": (int, ExperimentConfig.base_seed),
    "estimator.c0": (float, ExperimentConfig.c0),
}


def parse_config_file(path) -> dict:
    """key=value lines, # comments, comma lists; unknown keys are an error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r}")
        parse, _ = _CONFIG_KEYS[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key}: cannot parse {raw!r} ({exc})") from None
    return values


def _resolve_seed(flag_value: int) -> int:
    """COVLAB_SEED if it is set, else the flag's (or config's) seed; >= 0."""
    raw = os.environ.get("COVLAB_SEED")
    seed = flag_value
    if raw is not None:
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError(f"COVLAB_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return seed


def _print_pairs(pairs) -> None:
    """One key=value line per (key, value) pair, in order, each value as
    format_value writes it: the one way a command prints what it found."""
    for key, value in pairs:
        print(f"{key}={format_value(value)}")


def _print_resolved(pairs) -> None:
    print("# resolved config")
    _print_pairs(sorted(dict(pairs).items()))


def _print_flags(args, seed: int) -> None:
    """The header of a command set by its flags alone: each parsed flag as
    <command>.<name>, with --lambda as lambda and the resolved seed."""
    flags = dict(vars(args), seed=seed)
    flags["lambda"] = flags.pop("lam")
    del flags["command"], flags["func"]
    _print_resolved((f"{args.command}.{key}", value) for key, value in flags.items())


# ----------------------------------------------------------- diagnose ----


def cmd_diagnose(args) -> int:
    if args.mc_samples < 0 or args.mc_samples == 1:  # gamma2 needs two draws for its standard error
        raise UsageError(f"--mc-samples must be 0 (off) or >= 2, got {args.mc_samples}")
    if args.q is not None and not 0.0 < args.q <= 1.0:  # gamma1 would refuse it after the truth
        raise UsageError(f"--q must lie in (0, 1], got {args.q}")
    tails = []
    if args.N is not None:  # m_star refuses a bad N, before any output
        nu = nu_for(args.kernel, args.nu, args.d, KernelTemplate.smoothness)
        tails = [("m_star", m_star(nu, args.N, args.d)), ("eps_star", eps_star(nu, args.N, args.d))]
    seed = _resolve_seed(args.seed)
    _print_flags(args, seed)
    grid = build_grid(args.d, args.L)
    if args.kernel == "pwc":
        spec = PiecewiseConstant(values=np.eye(_PWC_CELLS))
    else:
        spec = kernel_for(args.kernel, args.lam, KernelTemplate.smoothness, KernelTemplate.period)
    C = discretize(spec, grid)
    if args.kernel == "permuted":
        C = shuffle_cov(C, seed)[0]
    quant = operator_quantities(C)
    report = [("trace_op", quant.trace_op), ("op_norm", quant.op_norm), ("r_eff", quant.r_eff)]
    for q in sorted({1.0} if args.q is None else {1.0, args.q}):
        report.append((f"gamma1.q{q:g}", gamma1(C, q, op_norm=quant.op_norm)))
    if args.mc_samples > 0:
        g2, g2_se = gamma2(cholesky_psd(C), args.mc_samples, seed)
        report += [("gamma2", g2), ("gamma2_se", g2_se)]
    _print_pairs(report + tails)
    return 0


# -------------------------------------------------------------- sweep ----


def _merged_sweep_config(args) -> dict:
    merged = {k: default for k, (_, default) in _CONFIG_KEYS.items()}
    merged.update(parse_config_file(args.config))
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise UsageError(f"config {args.config} is missing required keys: {missing}")
    merged["sweep.base_seed"] = _resolve_seed(merged["sweep.base_seed"])
    return merged


def _experiment_config(merged: dict) -> ExperimentConfig:
    names = merged["kernel.list"]
    nus = merged["kernel.nu_list"] or (KernelTemplate.nu_source,) * len(names)
    if len(nus) != len(names):
        raise UsageError(
            f"kernel.nu_list has {len(nus)} entries for {len(names)} kernels"
        )
    kernels = tuple(
        KernelTemplate(
            name=name,
            smoothness=merged["kernel.matern_smoothness"],
            period=merged["kernel.periodic_period"],
            nu_source=nu,
        )
        for name, nu in zip(names, nus)
    )
    sweep = {k[len("sweep."):]: v for k, v in merged.items() if k.startswith("sweep.")}
    return ExperimentConfig(kernels=kernels, c0=merged["estimator.c0"], **sweep)


def _parse_threads(raw: str) -> int:
    if raw == "auto":  # the CPUs this process may run on
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        raise UsageError(f"--threads takes an integer or 'auto', got {raw!r}") from None
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    return threads


def _blas_threads() -> tuple:
    """'library:threads' of each OpenBLAS bundled with numpy and scipy, read
    through the library's own getter ('unknown' without one); sets nothing."""
    found = []
    for pkg in (np, scipy):
        for lib in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*")):
            name = os.path.basename(lib)
            suffix = "64_" if "openblas64_" in name else ""
            try:
                get = getattr(ctypes.CDLL(lib), f"scipy_openblas_get_num_threads{suffix}")
            except (OSError, AttributeError):
                found.append(f"{name}:unknown")
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            found.append(f"{name}:{get()}")
    return tuple(found) or ("unknown",)


def cmd_sweep(args) -> int:
    merged = _merged_sweep_config(args)
    threads = _parse_threads(args.threads)
    cfg = _experiment_config(merged)
    resolved = list(merged.items()) + [
        ("sweep.config", str(args.config)),
        ("sweep.out", str(args.out)),
        ("sweep.threads", threads),
        ("sweep.plot", bool(args.plot)),
        ("sweep.blas", _blas_threads()),
    ]
    _print_resolved(resolved)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = run_sweep(
        cfg, threads=threads, progress=lambda line: print(line, file=sys.stderr)
    )
    emit_csv(list(result.records), out / "trials.csv", kind="trials")
    summaries = summarize(list(result.records))
    emit_csv(summaries, out / "summary.csv", kind="summary")
    if args.plot and summaries:
        emit_svg(summaries, out)
    if result.failures:
        print(f"sweep: {len(result.failures)} trial(s) failed:", file=sys.stderr)
        for line in result.failures:
            print(f"  {line}", file=sys.stderr)
    wall = time.perf_counter() - start
    trials = len(result.records) + len(result.failures)
    print(
        f"sweep: {trials} trials, {len(result.failures)} failed, "
        f"{result.lowrank_cells} of {len(cfg.kernels) * len(cfg.lambda_grid)} cells "
        f"on the low-rank norm, {wall:.2f} s, {trials / wall:.2f} trials/s",
        file=sys.stderr,
    )
    return 3 if result.failures else 0


# ------------------------------------------------------ minimax check ----

_MINIMAX_DEFAULTS = {
    # family: (r, N)
    "f1": (256, 200),
    "f2": (256, 200),
    "f3": (16, 100000),
    "sparse": (63, 7),
}
_SPARSE_DEFAULTS = {"q": 0.5, "gamma1_q": 3.0, "nu_const": 0.02}


def _minimax_nu() -> NuSequence:
    return NuSequence.table([m**-0.5 for m in range(1, 1025)])


def _check_pairs(check, slack_key: str = "slack") -> list:
    """A check's report pairs: name.pass, .measured, .bound and .<slack_key>."""
    return [(f"{check.name}.pass", check.passed), (f"{check.name}.measured", check.measured),
            (f"{check.name}.bound", check.bound), (f"{check.name}.{slack_key}", check.slack)]


def _aggregate_reports(reports) -> tuple:
    """Fold per-theta certificates into (all_passed, report pairs)."""
    pairs = [("family", reports[0].family), ("samples", len(reports))]
    all_ok = True
    for checks in zip(*(rep.checks for rep in reports)):
        # The least slack, failures first: a NaN slack never passes, so the
        # worst check has passed exactly when every check has.
        worst = min(checks, key=lambda c: (c.passed, c.slack))
        all_ok = all_ok and worst.passed
        pairs += _check_pairs(worst, "worst_slack")
    return all_ok, pairs


def _pair_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, 0xA55, index)).generate_state(1, np.uint64)[0])


def cmd_minimax_check(args) -> int:
    family = args.family
    def_r, def_n = _MINIMAX_DEFAULTS[family]
    r = args.r if args.r is not None else def_r
    N = args.N if args.N is not None else def_n
    if family == "sparse" and args.tau is not None:
        raise UsageError("--tau applies to the banded families, not sparse")
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    default_tau = DIAGONAL_TAU if family == "f1" else BandedFamilySpec.tau
    tau = args.tau if args.tau is not None else default_tau
    seed = _resolve_seed(args.seed)
    resolved = [
        ("minimax.class", family), ("minimax.r", r), ("minimax.N", N),
        ("minimax.samples", args.samples), ("minimax.seed", seed),
    ]
    if family != "sparse":
        resolved.append(("minimax.tau", tau))
    _print_resolved(resolved)

    if family == "f1":
        delta = diagonal_separation(r, N, tau)
        # The family's checks in O(1): each member is I with one O(1) entry 1 - delta.
        psd = delta < 1.0
        exact = abs((1.0 - (1.0 - delta)) - delta) <= 1e-12
        _print_pairs([("family", "f1"), ("members", r + 1), ("separation", delta),
                      ("psd.pass", psd), ("separation_exact.pass", exact)])
        return 0 if psd and exact else 1

    if family in ("f2", "f3"):
        spec = BandedFamilySpec(kind=family, r=r, N=N, tau=tau, nu=_minimax_nu())
        thetas = [sample_banded_theta(spec, seed, i) for i in range(args.samples)]
        reports = [certify_banded_membership(spec, t) for t in thetas]
    else:
        gamma2_cap = math.sqrt(2.0 * math.log(r + 1))
        spec = SparseFamilySpec(N=N, gamma2=gamma2_cap, **_SPARSE_DEFAULTS)
        thetas = [sample_sparse_theta(spec, seed, i) for i in range(args.samples)]
        reports = [
            certify_sparse_membership(spec, t, seed=_pair_seed(seed, 9000 + i))
            for i, t in enumerate(thetas)
        ]

    ok, report = _aggregate_reports(reports)
    _print_pairs(report)

    pairs = []
    for i, theta in enumerate(thetas):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, 0xF11B, i)))
        )
        for pos in gen.integers(0, len(theta.bits), size=2):
            pairs.append((theta, flip_bit(theta, int(pos))))
    assouad = assouad_terms(spec, pairs)
    _print_pairs([("pairs", len(pairs)), ("alpha_min", assouad.alpha_min),
                  ("worst_kl", assouad.worst_kl), ("worst_frob2", assouad.worst_frob2)]
                 + [p for check in assouad.checks for p in _check_pairs(check)])
    return 0 if ok and assouad.all_passed else 1


# ------------------------------------------------------------ estimate ----


def cmd_estimate(args) -> int:
    if args.N < 1:
        raise UsageError(f"--N must be >= 1, got {args.N}")
    seed = _resolve_seed(args.seed)
    _print_flags(args, seed)
    prep = build_prep(KernelTemplate(name=args.kernel), args.lam, args.L, args.d, args.N, tol=1e-9)
    shuffle_seed = int(np.random.SeedSequence((seed, 1)).generate_state(1, np.uint64)[0])
    estimators = ("taper", "threshold") if args.estimator == "all" else (args.estimator,)
    record, matrices = simulate_trial(
        prep, seed, shuffle_seed, ExperimentConfig.c0, estimators,
        keep_matrices=bool(args.dump_matrices),
    )
    print(TRIAL_HEADER)
    print(",".join(trial_row(record)))

    if args.dump_matrices:
        dump_dir = Path(args.dump_matrices)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for name, matrix in matrices.items():
            dump_matrix(matrix.entries, dump_dir / f"{name}.covm")
    return 0


# ---------------------------------------------------------------- main ----


@functools.cache  # one parser per process: each build leaves cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlab",
        description="Covariance operator estimation: diagnostics, sweeps, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagnose", help="print operator diagnostics for one kernel")
    p.add_argument("--kernel", required=True, choices=_DIAG_KERNELS)
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=0)
    p.add_argument("--nu", choices=NU_SOURCES, default=KernelTemplate.nu_source)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sweep", help="run a kernels x lengthscales x trials sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", default="1")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("minimax-check", help="certify lower-bound family membership")
    p.add_argument("--class", dest="family", required=True,
                   choices=("f1", "f2", "f3", "sparse"))
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_minimax_check)

    p = sub.add_parser("estimate", help="one seeded trial with chosen estimators")
    p.add_argument("--kernel", required=True, choices=KERNEL_NAMES)
    p.add_argument("--lambda", dest="lam", required=True, type=float)
    p.add_argument("--L", required=True, type=int)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--N", required=True, type=int)
    p.add_argument("--estimator", required=True,
                   choices=("sample", "taper", "threshold", "all"))
    p.add_argument("--dump-matrices", dest="dump_matrices", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"covlab: error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"covlab: numeric failure: {exc}", file=sys.stderr)
        return 1
    except CovlabError as exc:
        print(f"covlab: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"covlab: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("covlab: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
