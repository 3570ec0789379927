"""Command-line front end: diagnostics, sweeps, certificates, single runs.

Exit codes are a stable scripting contract: 0 success, 1 numeric failure,
2 usage or configuration error, 3 partial sweep failure.  Every command
prints its fully resolved configuration before doing any work.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import CovlabError, NumericError, UsageError
from .diagnostics import (
    DiagnosticReport,
    NuSequence,
    eps_star,
    gamma1,
    gamma2,
    m_star,
    operator_quantities,
)
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
from .grid_kernel import Permuted, PiecewiseConstant, build_grid, discretize
from .matrixio import dump_matrix
from .minimax import (
    BandedFamilySpec,
    SparseFamilySpec,
    assouad_terms,
    build_f1_banded,
    certify_banded_membership,
    certify_sparse_membership,
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

# Flat config registry: key -> (type tag, default).  None means "required";
# every other default is the one of the dataclass field the key sets.  Each
# sweep.* key sets the ExperimentConfig field of the same name.
_CONFIG_KEYS = {
    "kernel.list": ("strlist", None),
    "kernel.nu_list": ("strlist", ()),
    "kernel.matern_smoothness": ("float", KernelTemplate.smoothness),
    "kernel.periodic_period": ("float", KernelTemplate.period),
    "sweep.lambda_grid": ("floatlist", None),
    "sweep.trials": ("int", ExperimentConfig.trials),
    "sweep.L": ("int", ExperimentConfig.L),
    "sweep.d": ("int", ExperimentConfig.d),
    "sweep.n_mult": ("float", ExperimentConfig.n_mult),
    "sweep.base_seed": ("int", ExperimentConfig.base_seed),
    "sweep.norm_tol": ("float", ExperimentConfig.norm_tol),
    "estimator.c0": ("float", ExperimentConfig.c0),
}


def _convert(key: str, raw: str):
    tag, _ = _CONFIG_KEYS[key]
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "floatlist":
            return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
        if tag == "strlist":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return raw
    except ValueError as exc:
        raise UsageError(f"config key {key}: cannot parse {raw!r} ({exc})") from None


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
        values[key] = _convert(key, raw)
    return values


def _resolve_seed(flag_value: int) -> int:
    """COVLAB_SEED if it is set, else the flag's (or config's) seed."""
    raw = os.environ.get("COVLAB_SEED")
    if raw is None:
        return flag_value
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"COVLAB_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise UsageError(f"COVLAB_SEED must be >= 0, got {seed}")
    return seed


def _print_resolved(pairs) -> None:
    print("# resolved config")
    for key in sorted(dict(pairs)):
        print(f"{key}={format_value(dict(pairs)[key])}")


# ----------------------------------------------------------- diagnose ----


def cmd_diagnose(args) -> int:
    seed = _resolve_seed(args.seed)
    _print_resolved([
        ("diagnose.kernel", args.kernel),
        ("diagnose.lambda", args.lam),
        ("diagnose.L", args.L),
        ("diagnose.d", args.d),
        ("diagnose.q", args.q),
        ("diagnose.mc_samples", args.mc_samples),
        ("diagnose.nu", args.nu),
        ("diagnose.N", args.N),
        ("diagnose.seed", seed),
    ])
    grid = build_grid(args.d, args.L)
    if args.kernel == "pwc":
        spec = PiecewiseConstant(values=np.eye(_PWC_CELLS))
    else:
        spec = kernel_for(args.kernel, args.lam, KernelTemplate.smoothness, KernelTemplate.period)
        if args.kernel == "permuted":
            spec = Permuted(base=spec, seed=seed)
    C = discretize(spec, grid)
    quant = operator_quantities(C)
    qs = {1.0}
    if args.q is not None:
        qs.add(args.q)
    gammas = {q: gamma1(C, q, op_norm=quant.op_norm) for q in sorted(qs)}
    g2 = g2_se = None
    if args.mc_samples > 0:
        factor = cholesky_psd(C)
        g2, g2_se = gamma2(factor, grid, args.mc_samples, seed)
    ms = es = None
    if args.N is not None:
        nu = nu_for(args.kernel, args.nu, args.d, KernelTemplate.smoothness)
        ms = m_star(nu, args.N, args.d)
        es = eps_star(nu, args.N, args.d)
    report = DiagnosticReport(
        trace_op=quant.trace_op, op_norm=quant.op_norm, r_eff=quant.r_eff,
        gamma1=gammas, gamma2=g2, gamma2_se=g2_se, m_star=ms, eps_star=es,
    )
    print(report.format())
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
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        raise UsageError(f"--threads takes an integer or 'auto', got {raw!r}") from None
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    return threads


def cmd_sweep(args) -> int:
    merged = _merged_sweep_config(args)
    threads = _parse_threads(args.threads)
    cfg = _experiment_config(merged)
    resolved = list(merged.items()) + [
        ("sweep.config", str(args.config)),
        ("sweep.out", str(args.out)),
        ("sweep.threads", threads),
        ("sweep.plot", bool(args.plot)),
    ]
    _print_resolved(resolved)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        return 3
    return 0


# ------------------------------------------------------ minimax check ----

_MINIMAX_DEFAULTS = {
    # family: (r, N, tau)
    "f1": (256, 200, 0.003),
    "f2": (256, 200, 0.003),
    "f3": (16, 100000, 0.003),
    "sparse": (63, 7, None),
}
_SPARSE_DEFAULTS = {"q": 0.5, "gamma1_q": 3.0, "nu_const": 0.02}


def _minimax_nu() -> NuSequence:
    return NuSequence.table([m**-0.5 for m in range(1, 1025)])


def _aggregate_reports(reports) -> tuple:
    """Fold per-theta certificates into (all_passed, printable lines)."""
    lines = [f"family={reports[0].family}", f"samples={len(reports)}"]
    all_ok = True
    for checks in zip(*(rep.checks for rep in reports)):
        # The least slack, failures first: a NaN slack never passes, so the
        # worst check has passed exactly when every check has.
        worst = min(checks, key=lambda c: (c.passed, c.slack))
        all_ok = all_ok and worst.passed
        lines.extend(worst.lines("worst_slack"))
    return all_ok, lines


def _pair_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, 0xA55, index)).generate_state(1, np.uint64)[0])


def cmd_minimax_check(args) -> int:
    family = args.family
    def_r, def_n, def_tau = _MINIMAX_DEFAULTS[family]
    r = args.r if args.r is not None else def_r
    N = args.N if args.N is not None else def_n
    if family == "sparse" and args.tau is not None:
        raise UsageError("--tau applies to the banded families, not sparse")
    tau = args.tau if args.tau is not None else def_tau
    seed = _resolve_seed(args.seed)
    resolved = [
        ("minimax.class", family), ("minimax.r", r), ("minimax.N", N),
        ("minimax.samples", args.samples), ("minimax.seed", seed),
    ]
    if family != "sparse":
        resolved.append(("minimax.tau", tau))
    _print_resolved(resolved)

    if family == "f1":
        spec = BandedFamilySpec(kind="f1", r=r, N=N, tau=tau)
        members = build_f1_banded(spec)
        separation = spec.w * math.sqrt(tau * math.log(r) / N)
        print("family=f1")
        print(f"members={len(members)}")
        print(f"separation={separation!r}")
        print("psd.pass=true")
        print("separation_exact.pass=true")
        return 0

    if family in ("f2", "f3"):
        spec = BandedFamilySpec(kind=family, r=r, N=N, tau=tau, nu=_minimax_nu())
        thetas = [sample_banded_theta(spec, seed, i) for i in range(args.samples)]
        reports = [certify_banded_membership(spec, t) for t in thetas]
        bits = spec.gamma_N
    else:
        gamma2_cap = math.sqrt(2.0 * math.log(r + 1))
        spec = SparseFamilySpec(N=N, gamma2=gamma2_cap, **_SPARSE_DEFAULTS)
        thetas = [sample_sparse_theta(spec, seed, i) for i in range(args.samples)]
        reports = [
            certify_sparse_membership(spec, t, seed=_pair_seed(seed, 9000 + i))
            for i, t in enumerate(thetas)
        ]
        bits = spec.r_star

    ok, lines = _aggregate_reports(reports)
    for line in lines:
        print(line)

    pairs = []
    for i, theta in enumerate(thetas):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, 0xF11B, i)))
        )
        for pos in gen.integers(0, bits, size=2):
            pairs.append((theta, flip_bit(theta, int(pos))))
    assouad = assouad_terms(spec, pairs)
    print(f"pairs={len(pairs)}")
    print(assouad.format())
    return 0 if ok and assouad.all_passed else 1


# ------------------------------------------------------------ estimate ----


def cmd_estimate(args) -> int:
    if args.N < 1:
        raise UsageError(f"--N must be >= 1, got {args.N}")
    seed = _resolve_seed(args.seed)
    _print_resolved([
        ("estimate.kernel", args.kernel),
        ("estimate.lambda", args.lam),
        ("estimate.L", args.L),
        ("estimate.d", args.d),
        ("estimate.N", args.N),
        ("estimate.estimator", args.estimator),
        ("estimate.seed", seed),
        ("estimate.dump_matrices", args.dump_matrices),
    ])
    prep = build_prep(KernelTemplate(name=args.kernel), args.lam, args.L, args.d, args.N, tol=1e-9)
    shuffle_seed = int(np.random.SeedSequence((seed, 1)).generate_state(1, np.uint64)[0])
    estimators = ("taper", "threshold") if args.estimator == "all" else (args.estimator,)
    record, matrices = simulate_trial(prep, seed, shuffle_seed, ExperimentConfig.c0, estimators)
    print(TRIAL_HEADER)
    print(",".join(trial_row(record)))

    if args.dump_matrices:
        dump_dir = Path(args.dump_matrices)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for name, matrix in matrices.items():
            dump_matrix(matrix.entries, dump_dir / f"{name}.covm")
    return 0


# ---------------------------------------------------------------- main ----


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
