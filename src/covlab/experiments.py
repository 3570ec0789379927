"""Sweep harness: seeded trials over kernels and lengthscales, with CSV output.

Each trial draws N paths from a discretized kernel, forms the sample, tapered
and thresholded estimates, and records relative spectral errors against the
truth.  Trials are independently seeded so any execution schedule yields the
same records; aggregation and serialization are single threaded.
"""

from __future__ import annotations

import csv
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np
import scipy.special

from .errors import UsageError
from .diagnostics import (
    LOWRANK_MAX_RANK,
    NuSequence,
    TridiagonalForm,
    lowrank_update_norm,
    operator_quantities,
    spectral_norm,
)
from .estimators import adaptive_threshold, choose_kappa, taper_estimate, threshold_estimate
from .grid_kernel import (
    CovMatrix,
    KernelSpec,
    Matern,
    Periodic,
    SquaredExponential,
    build_grid,
    discretize,
    shuffle_cov,
)
from .sampling import cholesky_psd, draw_paths, sample_cov

__all__ = [
    "KernelTemplate",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "SweepResult",
    "KERNEL_NAMES",
    "NU_SOURCES",
    "TRIAL_HEADER",
    "SUMMARY_HEADER",
    "n_for_lambda",
    "trial_seed",
    "kernel_for",
    "nu_for",
    "Prep",
    "build_prep",
    "simulate_trial",
    "run_trial",
    "run_sweep",
    "summarize",
    "format_value",
    "trial_row",
    "emit_csv",
    "load_trials",
    "load_summaries",
]

# Kernel name -> spec at (lengthscale, smoothness, period); 'permuted' is
# its unshuffled squared-exponential base.
_KERNELS = {
    "se": lambda lam, smoothness, period: SquaredExponential(lengthscale=lam),
    "matern": lambda lam, smoothness, period: Matern(lengthscale=lam, smoothness=smoothness),
    "periodic": lambda lam, smoothness, period: Periodic(lengthscale=lam, period=period),
    "permuted": lambda lam, smoothness, period: SquaredExponential(lengthscale=lam),
}
KERNEL_NAMES = tuple(_KERNELS)
NU_SOURCES = ("default", "se", "exp", "numeric")

# Concurrent trials take turns at their BLAS stages (draw, Gram, each norm):
# one such call already runs on every CPU, so two at once only contend.  The
# elementwise work between them runs outside the lock, and every call keeps
# its thread count and arithmetic, so records do not depend on the schedule.
# Taken at the call sites, never nested.
_BLAS_TURN = threading.Lock()


@dataclass(frozen=True)
class KernelTemplate:
    """A kernel family with the lengthscale left free.

    'permuted' wraps the squared-exponential base in a fresh grid shuffle
    drawn from each trial's seed.  nu_source picks the tail sequence used
    for the taper radius: 'default' maps matern to the exponential form and
    the rest to the d=1 closed form.
    """

    name: str
    smoothness: float = 1.5
    period: float = 0.4
    nu_source: str = "default"

    def __post_init__(self) -> None:
        if self.name not in KERNEL_NAMES:
            raise UsageError(
                f"kernel must be one of {KERNEL_NAMES}, got {self.name!r}"
            )
        if self.nu_source not in NU_SOURCES:
            raise UsageError(
                f"nu_source must be one of {NU_SOURCES}, got {self.nu_source!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """A full sweep: kernels x lengthscales x trials.

    The sample count follows N = ceil(n_mult * ln(lambda^-d)) per
    lengthscale (natural log).  norm_tol is forwarded to the spectral norm.
    The norm's relative error is about quadratic in this residual tolerance
    only when the top eigenvalue is well separated; on a clustered top it is
    about linear (tol 1e-6 gave 1.1e-9, about 9 digits).  A norm that does
    not converge within the restart cap comes from a dense solve instead;
    when that happens to the truth, its threshold errors are exact (see Prep).
    """

    kernels: tuple
    lambda_grid: tuple
    L: int = 1250
    d: int = 1
    trials: int = 30
    n_mult: float = 5.0
    c0: float = 2.0
    base_seed: int = 0
    norm_tol: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in self.lambda_grid))
        if not self.kernels:
            raise UsageError("config needs at least one kernel")
        if not self.lambda_grid:
            raise UsageError("config needs at least one lengthscale")
        # Trials are seeded by grid position and summarized by (kernel, lambda),
        # so a repeat would run the same trials again or merge two groups.
        for what, values in (("kernel", [k.name for k in self.kernels]),
                             ("lengthscale", self.lambda_grid)):
            repeats = sorted({v for v in values if values.count(v) > 1})
            if repeats:
                raise UsageError(f"config repeats {what} {', '.join(map(str, repeats))}")
        for lam in self.lambda_grid:
            if not (0.0 < lam < 1.0):
                raise UsageError(f"lengthscales must lie in (0, 1), got {lam}")
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if not self.n_mult > 0:
            raise UsageError(f"n_mult must be > 0, got {self.n_mult}")
        if self.base_seed < 0:
            raise UsageError(f"base_seed must be >= 0, got {self.base_seed}")
        for lam in self.lambda_grid:
            if n_for_lambda(self, lam) < 1:
                raise UsageError(f"sample rule gives N < 1 at lambda={lam}")


@dataclass(frozen=True)
class TrialRecord:
    kernel: str
    lam: float
    d: int
    L: int
    N: int
    trial: int
    seed: int
    kappa: float
    rho_hat: Optional[float]  # None where the estimator did not run
    err_sample: float
    err_taper: Optional[float]
    err_thresh: Optional[float]


@dataclass(frozen=True)
class SummaryRow:
    kernel: str
    lam: float
    N: int
    trials: int
    mean_sample: float
    ci_sample: Optional[float]
    mean_taper: float
    ci_taper: Optional[float]
    mean_thresh: float
    ci_thresh: Optional[float]


def _columns(record_type) -> tuple:
    """(field, parser) of each CSV column of a record type, in field order.

    The parser follows the field's annotation, a string under postponed
    evaluation: str, int, or float for every other (optional) number.
    """
    return tuple(
        (f.name, {"str": str, "int": int}.get(f.type, float))
        for f in fields(record_type)
    )


def _header(columns) -> list:
    return ["lambda" if name == "lam" else name for name, _ in columns]


# CSV kind -> (record type, its columns, row order).
_CSV_KINDS = {
    "trials": (TrialRecord, _columns(TrialRecord), lambda r: (r.kernel, r.lam, r.trial)),
    "summary": (SummaryRow, _columns(SummaryRow), lambda r: (r.kernel, r.lam)),
}
TRIAL_HEADER = ",".join(_header(_CSV_KINDS["trials"][1]))
SUMMARY_HEADER = ",".join(_header(_CSV_KINDS["summary"][1]))


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    failures: tuple
    lowrank_cells: int = 0  # cells whose threshold errors come from the truth's tridiagonal form

    @property
    def ok(self) -> bool:
        return not self.failures


def n_for_lambda(cfg: ExperimentConfig, lam: float) -> int:
    """Sample count N = ceil(n_mult * ln(lambda^-d))."""
    return int(math.ceil(cfg.n_mult * cfg.d * math.log(1.0 / lam)))


def trial_seed(cfg: ExperimentConfig, kernel_index: int, lambda_index: int, trial: int):
    """Derive the (draw, shuffle) seeds for one trial from the base seed.

    Seeds are taken from disjoint substreams keyed by position in the sweep
    grid, so adding kernels or lengthscales never shifts existing trials.
    """
    ss = np.random.SeedSequence(
        entropy=cfg.base_seed, spawn_key=(kernel_index, lambda_index, trial)
    )
    draw, shuffle = (int(v) for v in ss.generate_state(2, np.uint64))
    return draw, shuffle


def kernel_for(name: str, lam: float, smoothness: float, period: float) -> KernelSpec:
    """Concrete kernel at the given lengthscale; 'permuted' gives its unshuffled base."""
    if name not in _KERNELS:
        raise UsageError(
            f"no kernel named {name!r} takes a lengthscale; expected one of {KERNEL_NAMES}"
        )
    return _KERNELS[name](lam, smoothness, period)


def nu_for(name: str, source: str, d: int, smoothness: float) -> NuSequence:
    """Tail sequence of a kernel; 'default' is 'exp' for matern and 'se' otherwise."""
    if source == "default":
        source = "exp" if name == "matern" else "se"
    if source == "se":
        if d != 1:
            raise UsageError("the closed-form gaussian tail sequence is d=1 only")
        return NuSequence.se_d1()
    if source == "exp":
        return NuSequence.exponential()
    return NuSequence.numeric(kernel_for(name, 1.0, smoothness, KernelTemplate.period), d)


@dataclass(frozen=True)
class Prep:
    """Shared per-(kernel, lengthscale) state: truth, factor, taper radius.

    form is the truth's tridiagonal form, held when ARPACK could not resolve
    |C| (the truth needed a dense solve); the errors of the cell's few-row
    estimates then come from it, and so does norm.  The form is that of the
    truth's centrosymmetric fold when ``tridiagonal_form`` finds the truth
    centrosymmetric to rounding; C and factor keep the truth's own bits.  A
    permuted cell holds its unshuffled base truth.
    """

    kernel: str
    lam: float
    L: int  # grid points per axis
    grid: np.ndarray  # the (L^d, d) grid points of ``build_grid``
    C: CovMatrix
    factor: object
    norm: float  # matrix norm of the truth, the divisor of every relative error
    kappa: float
    N: int
    tol: float  # residual tolerance of every spectral norm
    form: Optional[TridiagonalForm] = field(default=None, repr=False)


def build_prep(template: KernelTemplate, lam: float, L: int, d: int, N: int, tol: float) -> Prep:
    grid = build_grid(d, L)
    C = discretize(kernel_for(template.name, lam, template.smoothness, template.period), grid)
    factor = cholesky_psd(C)
    quant = operator_quantities(C, tol=tol)
    kappa = choose_kappa(nu_for(template.name, template.nu_source, d, template.smoothness), N, d, lam)
    return Prep(
        kernel=template.name, lam=lam, L=L, grid=grid, C=C, factor=factor,
        norm=quant.op_norm / C.h, kappa=kappa, N=N, tol=tol,
        form=quant.form,
    )


def simulate_trial(
    prep: Prep,
    draw_seed: int,
    shuffle_seed: int,
    c0: float,
    estimators: Sequence[str] = ("taper", "threshold"),
    trial: int = 0,
    keep_matrices: bool = True,
) -> tuple:
    """One seeded draw scored by the sample estimate and the chosen estimators.

    Returns (record, matrices): matrices maps 'truth', 'sample' and each
    estimator run to its CovMatrix, or is empty without keep_matrices; the
    record's fields of estimators not run are None.  Each estimate is scored
    as soon as it is built, so without keep_matrices none outlives its
    score.  The permuted kernel shuffles path coordinates of the base draw,
    which has the law of factoring the shuffled matrix directly.
    """
    with _BLAS_TURN:
        base = draw_paths(prep.factor, prep.N, draw_seed)
    if prep.kernel == "permuted":
        truth, perm = shuffle_cov(prep.C, shuffle_seed)
        paths = base[:, perm]
    else:
        truth, paths, perm = prep.C, base, None

    with _BLAS_TURN:
        Chat = sample_cov(paths)
    matrices = {"truth": truth, "sample": Chat} if keep_matrices else {}

    def error(est: CovMatrix) -> float:
        """|est - truth| / |truth|: a low-rank update of the truth's tridiagonal
        form when the prep holds one and est has at most LOWRANK_MAX_RANK
        nonzero rows (perm maps them to the base truth), else spectral_norm."""
        e, rows = est.entries, None
        # A nonzero diagonal entry marks a nonzero row: the O(n^2) row scan
        # runs only once the diagonal alone fits under the cap.
        if prep.form is not None and np.count_nonzero(np.diagonal(e)) <= LOWRANK_MAX_RANK:
            rows = np.flatnonzero(e.any(axis=1))
        lowrank = rows is not None and rows.size <= LOWRANK_MAX_RANK
        if lowrank:
            block = e[np.ix_(rows, rows)]
        else:
            diff = CovMatrix._derived(e - truth.entries)
        with _BLAS_TURN:
            norm = (lowrank_update_norm(prep.form, rows if perm is None else perm[rows], block)
                    if lowrank else spectral_norm(diff, tol=prep.tol))
        return norm / prep.norm

    err = {"sample": error(Chat)}
    rho_hat = None
    if "taper" in estimators:
        est = taper_estimate(Chat, prep.kappa, prep.grid)
        err["taper"] = error(est)
        if keep_matrices:
            matrices["taper"] = est
        del est
    if "threshold" in estimators:
        # The plugin sup-kernel value is the largest sample variance, read
        # off the Gram built above instead of a second one.
        rho_hat = adaptive_threshold(paths, c0, float(np.max(np.diag(Chat.entries))))
        # The signed-sup mean can go negative at tiny N; keep-if |entry| >=
        # level then keeps every entry, so the estimate coincides with level
        # zero.  The record still carries the raw level.
        est = threshold_estimate(Chat, max(rho_hat, 0.0))
        del Chat  # the sample estimate is not needed past this point
        err["threshold"] = error(est)
        if keep_matrices:
            matrices["threshold"] = est
    record = TrialRecord(
        kernel=prep.kernel, lam=prep.lam, d=prep.grid.shape[1], L=prep.L, N=prep.N,
        trial=trial, seed=draw_seed, kappa=prep.kappa, rho_hat=rho_hat,
        err_sample=err["sample"], err_taper=err.get("taper"),
        err_thresh=err.get("threshold"),
    )
    return record, matrices


def run_trial(
    template: KernelTemplate,
    lam: float,
    cfg: ExperimentConfig,
    trial_index: int,
    prep: Optional[Prep] = None,
) -> TrialRecord:
    """One trial of the sweep grid, seeded by its grid position."""
    if trial_index < 0:
        raise UsageError(f"trial index must be >= 0, got {trial_index}")
    if template not in cfg.kernels:
        raise UsageError(f"kernel template {template.name!r} is not part of the config")
    if lam not in cfg.lambda_grid:
        raise UsageError(f"lengthscale {lam!r} is not on the config grid")
    if prep is None:
        prep = build_prep(template, lam, cfg.L, cfg.d, n_for_lambda(cfg, lam), cfg.norm_tol)
    draw_seed, shuffle_seed = trial_seed(
        cfg, cfg.kernels.index(template), cfg.lambda_grid.index(lam), trial_index
    )
    record, _ = simulate_trial(
        prep, draw_seed, shuffle_seed, cfg.c0, trial=trial_index, keep_matrices=False
    )
    return record


def run_sweep(
    cfg: ExperimentConfig,
    threads: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the full kernels x lengthscales x trials grid.

    Records and progress lines come in canonical (kernel, lengthscale, trial)
    order for any thread count; a trial's progress line follows as soon as it
    and every earlier trial are done, and ends with the count done so far and
    an ETA from the mean time per trial since the preps were built.  A failed
    trial is reported in the failures trailer and does not stop the rest.
    """
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")
    preps = {
        (ki, li): build_prep(template, lam, cfg.L, cfg.d, n_for_lambda(cfg, lam), cfg.norm_tol)
        for ki, template in enumerate(cfg.kernels)
        for li, lam in enumerate(cfg.lambda_grid)
    }
    tasks = [
        (ki, li, trial, template, lam)
        for ki, template in enumerate(cfg.kernels)
        for li, lam in enumerate(cfg.lambda_grid)
        for trial in range(cfg.trials)
    ]

    def _one(task):
        ki, li, trial, template, lam = task
        try:
            return run_trial(template, lam, cfg, trial, prep=preps[(ki, li)])
        except Exception as exc:  # noqa: BLE001 - trailer reports, sweep continues
            return exc

    records = []
    failures = []
    start = time.perf_counter()
    # One thread runs the trials on the calling thread: a pool worker would
    # hold BLAS and malloc buffers of its own.
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext()
    with pool:
        outcomes = pool.map(_one, tasks) if threads > 1 else map(_one, tasks)
        for done, (task, out) in enumerate(zip(tasks, outcomes), start=1):
            if progress is not None:
                eta = (time.perf_counter() - start) / done * (len(tasks) - done)
                progress(_progress_line(task, out, done, len(tasks), eta))
            if isinstance(out, TrialRecord):
                records.append(out)
            else:
                _, _, trial, template, lam = task
                failures.append(
                    f"kernel={template.name} lambda={lam!r} trial={trial}: {out}"
                )
    return SweepResult(
        records=tuple(records), failures=tuple(failures),
        lowrank_cells=sum(prep.form is not None for prep in preps.values()),
    )


def _progress_line(task, outcome, done: int, total: int, eta: float) -> str:
    ki, li, trial, template, lam = task
    tag = "ok" if isinstance(outcome, TrialRecord) else "FAIL"
    return (f"trial kernel={template.name} lambda={lam!r} trial={trial} {tag} "
            f"{done}/{total} eta={eta:.1f}s")


def summarize(records: Sequence[TrialRecord]) -> list:
    """Per-(kernel, lengthscale) means and 95% Student-t half-widths.

    Groups with a single trial get a missing marker instead of a width.
    """
    if not records:
        return []
    groups = {}
    for rec in records:
        groups.setdefault((rec.kernel, rec.lam), []).append(rec)
    rows = []
    for (kernel, lam), recs in groups.items():
        T = len(recs)
        Ns = {r.N for r in recs}
        if len(Ns) != 1:
            raise UsageError(
                f"group kernel={kernel} lambda={lam!r} mixes sample counts {sorted(Ns)}"
            )
        stats = {}
        # The estimators' fields: err_* in a TrialRecord, mean_* and ci_* here.
        for suffix in ("sample", "taper", "thresh"):
            vals = np.array([getattr(r, f"err_{suffix}") for r in recs], dtype=np.float64)
            stats[f"mean_{suffix}"] = float(np.mean(vals))
            stats[f"ci_{suffix}"] = None if T < 2 else float(
                scipy.special.stdtrit(T - 1, 0.975) * float(np.std(vals, ddof=1)) / math.sqrt(T)
            )
        rows.append(SummaryRow(kernel=kernel, lam=lam, N=Ns.pop(), trials=T, **stats))
    rows.sort(key=lambda r: (r.kernel, r.lam))
    return rows


def format_value(value) -> str:
    """Shortest round-trip text of a CSV or resolved-config value; None is 'na'."""
    if value is None:
        return "na"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    return str(value)


def _cells(row, columns) -> list:
    return [format_value(getattr(row, name)) for name, _ in columns]


def trial_row(rec: TrialRecord) -> list:
    """A record's trials-CSV fields as strings; missing values read 'na'."""
    return _cells(rec, _CSV_KINDS["trials"][1])


def emit_csv(rows: Sequence, path, kind: str) -> None:
    """Write trial or summary rows (kind 'trials' or 'summary') in canonical
    order, shortest decimals."""
    if kind not in _CSV_KINDS:
        raise UsageError(f"kind must be 'trials' or 'summary', got {kind!r}")
    _, columns, order = _CSV_KINDS[kind]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(columns))
        for row in sorted(rows, key=order):
            writer.writerow(_cells(row, columns))


def _load(path, kind: str) -> list:
    record_type, columns, _ = _CSV_KINDS[kind]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _header(columns):
            raise UsageError(f"unexpected {kind} header in {path}")
        records = []
        for row in filter(None, reader):
            where = f"{path}:{reader.line_num}"
            if len(row) != len(columns):
                raise UsageError(f"{where}: expected {len(columns)} cells, got {len(row)}")
            try:
                records.append(record_type(**{name: None if raw == "na" else parse(raw)
                                              for (name, parse), raw in zip(columns, row)}))
            except ValueError as exc:
                raise UsageError(f"{where}: {exc}") from None
        return records


def load_trials(path) -> list:
    """Parse a trials CSV back to records ('na' reads None)."""
    return _load(path, "trials")


def load_summaries(path) -> list:
    """Parse a summary CSV back to rows ('na' reads None)."""
    return _load(path, "summary")
