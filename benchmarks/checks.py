"""Checks of covlab's outputs against computations made apart from it.

Nothing here imports covlab.  The kernels, the jitter ladder, the seeded
path draws, the per-trial seed derivation, the Fisher-Yates shuffle, the
taper ramp, the hard threshold and the `.covm` header are rebuilt from
their documented definitions, and every relative error is recomputed with a
dense ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np
import scipy.special

# The sweep's iterative norm stops at a relative residual of 1e-6 (the
# default sweep.norm_tol); the eigenvalue it returns is at least that close.
SWEEP_ERR_RTOL = 1e-6
# estimate uses tol=1e-9 for its norms.
ESTIMATE_ERR_RTOL = 1e-8


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------ formulas ----


def n_for_lambda(lam: float, n_mult: float = 5.0) -> int:
    return int(math.ceil(n_mult * math.log(1.0 / lam)))


def m_star_closed_form(kernel: str, N: int) -> int:
    """Smallest m with nu_m <= sqrt(m / N), d = 1.

    Matern uses the exponential tail exp(-(m-1)); the other kernels use the
    Gaussian tail erfc(m / sqrt 2) / erfc(1 / sqrt 2).
    """
    if kernel == "matern":
        nu = lambda m: math.exp(-(m - 1.0))
    else:
        denom = scipy.special.erfc(1.0 / math.sqrt(2.0))
        nu = lambda m: float(scipy.special.erfc(m / math.sqrt(2.0)) / denom)
    m = 1
    while nu(m) > math.sqrt(m / N):
        m += 1
    return m


def grid_points(L: int) -> np.ndarray:
    return np.arange(L, dtype=np.float64) / (L - 1)


def kernel_matrix(kernel: str, lam: float, L: int) -> np.ndarray:
    """k(x_i, x_j) on the endpoint-aligned grid.

    Matern has smoothness 3/2 and the periodic kernel period 0.4, the values
    the benchmark's sweeps set.
    """
    x = grid_points(L)
    diff = x[:, None] - x[None, :]
    d2 = diff * diff
    if kernel in ("se", "permuted"):
        return np.exp(-d2 / (2.0 * lam * lam))
    if kernel == "matern":
        s = math.sqrt(3.0) * (np.sqrt(d2) / lam)
        return (1.0 + s) * np.exp(-s)
    if kernel == "periodic":
        s = np.sin(np.pi * np.sqrt(d2) / 0.4)
        return np.exp(-2.0 * s * s / lam**2)
    raise ValueError(kernel)


def jittered_cholesky(A: np.ndarray, budget: float = 1e-6) -> np.ndarray:
    """Cholesky with a diagonal shift of 1e-12 * tr/n, times 10 per failure."""
    n = A.shape[0]
    scale = float(np.trace(A)) / n
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(A if jitter == 0.0 else A + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale if jitter == 0.0 else jitter * 10.0
            expect(jitter <= budget * scale, "truth is not PSD within the jitter budget")


def draw(lower: np.ndarray, N: int, seed: int) -> np.ndarray:
    """Path i is lower @ z_i, with z_i standard normal from Philox keyed (seed, i)."""
    n = lower.shape[0]
    paths = np.empty((N, n))
    for i in range(N):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        paths[i] = lower @ gen.standard_normal(n)
    return paths


def trial_seeds(base_seed: int, ki: int, li: int, trial: int) -> tuple:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(ki, li, trial))
    draw_seed, shuffle_seed = (int(v) for v in ss.generate_state(2, np.uint64))
    return draw_seed, shuffle_seed


def fisher_yates(n: int, seed: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def sym_norm(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


def recompute_trial(kernel: str, lam: float, L: int, N: int, draw_seed: int,
                    kappa: float, c0: float = 2.0, perm=None) -> dict:
    """Errors of the sample, taper and threshold estimates of one trial.

    perm, if given, shuffles the grid indices of the truth and of the paths.
    """
    C = kernel_matrix(kernel, lam, L)
    lower = jittered_cholesky(C)
    c_norm = sym_norm(C)
    paths = draw(lower, N, draw_seed)
    if perm is not None:
        C = C[np.ix_(perm, perm)]
        paths = paths[:, perm]
    G = (paths.T @ paths) / N
    G = (G + G.T) / 2.0
    rho_hat = c0 * math.sqrt(float(np.max(np.diag(G)))) / math.sqrt(N) * float(
        np.mean(paths.max(axis=1))
    )
    x = grid_points(L)
    ramp = np.clip((2.0 * kappa - np.abs(x[:, None] - x[None, :])) / kappa, 0.0, 1.0)
    thresholded = G * (np.abs(G) >= max(rho_hat, 0.0))
    return {
        "rho_hat": rho_hat,
        "err_sample": sym_norm(G - C) / c_norm,
        "err_taper": sym_norm(G * ramp - C) / c_norm,
        "err_thresh": sym_norm(thresholded - C) / c_norm,
    }


# ------------------------------------------------------------- sweeps ----


def read_trials(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, kernels: tuple, lambdas: tuple, L: int, trials: int,
                base_seed: int, sample_rng, expected_rows: int, narrow: bool) -> list:
    """Check one sweep output directory; returns the parsed trial rows.

    Every row is checked against the closed forms (N, kappa, seed).  One
    trial of one seeded cell per kernel is rebuilt in full and its three
    errors recomputed densely; dense checks of every cell would cost more
    than a run measures.  expected_rows is the number of trials the sweep
    reported as completed; failed trials have no row and are counted by
    the caller.
    """
    rows = read_trials(out / "trials.csv")
    expect(len(rows) == expected_rows, f"trials.csv has {len(rows)} rows, expected {expected_rows}")
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row["kernel"], float(row["lambda"])), []).append(row)
    for ki, kernel in enumerate(kernels):
        dense_li = sample_rng.randrange(len(lambdas))
        for li, lam in enumerate(lambdas):
            cell = sorted(by_cell.pop((kernel, lam), []), key=lambda r: int(r["trial"]))
            expect({int(r["trial"]) for r in cell} <= set(range(trials)),
                   f"cell {kernel} {lam}: trials {[r['trial'] for r in cell]}")
            if not cell:
                continue
            N = n_for_lambda(lam)
            kappa = m_star_closed_form(kernel, N) * lam
            for r in cell:
                expect(int(r["N"]) == N, f"cell {kernel} {lam}: N={r['N']}, expected {N}")
                expect(close(float(r["kappa"]), kappa, 1e-12),
                       f"cell {kernel} {lam}: kappa={r['kappa']}, expected {kappa!r}")
                expect(int(r["seed"]) == trial_seeds(base_seed, ki, li, int(r["trial"]))[0],
                       f"cell {kernel} {lam} trial {r['trial']}: seed does not follow the grid position")
            if li != dense_li:
                continue
            r = cell[sample_rng.randrange(len(cell))]
            trial = int(r["trial"])
            draw_seed, shuffle_seed = trial_seeds(base_seed, ki, li, trial)
            perm = fisher_yates(L, shuffle_seed) if kernel == "permuted" else None
            got = recompute_trial(kernel, lam, L, N, draw_seed, kappa, perm=perm)
            expect(close(float(r["rho_hat"]), got["rho_hat"], 1e-9),
                   f"cell {kernel} {lam} trial {trial}: rho_hat {r['rho_hat']} vs {got['rho_hat']!r}")
            for key in ("err_sample", "err_taper", "err_thresh"):
                expect(close(float(r[key]), got[key], SWEEP_ERR_RTOL),
                       f"cell {kernel} {lam} trial {trial}: {key} {r[key]} vs dense {got[key]!r}")
    expect(not by_cell, f"trials.csv has rows outside the sweep grid: {sorted(by_cell)}")
    check_summary(out, rows, kernels)
    if narrow:
        mean = lambda key: sum(float(r[key]) for r in rows) / len(rows)
        expect(mean("err_taper") < mean("err_sample"),
               f"mean taper error {mean('err_taper')} is not below mean sample error {mean('err_sample')}")
        expect(mean("err_sample") >= 1.0, f"mean sample error {mean('err_sample')} is below 1")
    return rows


def check_summary(out: Path, rows: list, kernels: tuple) -> None:
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    groups = {}
    for r in rows:
        groups.setdefault((r["kernel"], float(r["lambda"])), []).append(r)
    expect(len(summary) == len(groups), "summary.csv does not have one row per cell")
    for s in summary:
        cell = groups[(s["kernel"], float(s["lambda"]))]
        expect(int(s["trials"]) == len(cell), f"summary trial count for {s['kernel']} {s['lambda']}")
        for key in ("sample", "taper", "thresh"):
            mean = sum(float(r[f"err_{key}"]) for r in cell) / len(cell)
            expect(close(float(s[f"mean_{key}"]), mean, 1e-12),
                   f"summary mean_{key} for {s['kernel']} {s['lambda']}")
    for kernel in kernels:
        svg = out / f"{kernel}.svg"
        expect(svg.is_file() and "<svg" in svg.read_text()[:400], f"missing or empty plot {svg}")


# -------------------------------------------------------- cli one-shot ----


def key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def check_diagnose(text: str, kernel: str, lam: float, N: int) -> None:
    kv = key_values(text)
    expect(abs(float(kv["trace_op"]) - 1.0) <= 1e-12, f"{kernel}: trace_op={kv['trace_op']}")
    expect(int(kv["m_star"]) == m_star_closed_form(kernel, N),
           f"{kernel}: m_star={kv['m_star']}, closed form gives {m_star_closed_form(kernel, N)}")
    if kernel == "se":
        ratio = float(kv["r_eff"]) * lam * math.sqrt(2.0 * math.pi)
        expect(abs(ratio - 1.0) <= 0.10, f"se: r_eff*lambda*sqrt(2 pi) = {ratio}")


def estimate_row(text: str) -> dict:
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("kernel,lambda,"))
    return dict(zip(lines[i].split(","), lines[i + 1].split(",")))


def check_estimate(text: str, kernel: str, lam: float, L: int, N: int, seed: int,
                   dense: bool) -> None:
    """Check the printed row; with dense, rebuild the trial from its seed and
    recompute the three errors."""
    row = estimate_row(text)
    expect(row["kernel"] == kernel and int(row["N"]) == N and int(row["seed"]) == seed,
           f"estimate row {row} does not echo its request")
    kappa = m_star_closed_form(kernel, N) * lam
    expect(close(float(row["kappa"]), kappa, 1e-12), f"estimate kappa {row['kappa']} vs {kappa!r}")
    if not dense:
        return
    got = recompute_trial(kernel, lam, L, N, seed, kappa)
    for key in ("err_sample", "err_taper", "err_thresh"):
        expect(close(float(row[key]), got[key], ESTIMATE_ERR_RTOL),
               f"estimate {kernel}: {key} {row[key]} vs dense {got[key]!r}")


def read_covm(path: Path) -> np.ndarray:
    """16-byte header: b'COVM', u32 LE side, u32 LE reserved = 0, 4 pad bytes."""
    raw = path.read_bytes()
    magic, n, reserved, _pad = struct.unpack("<4sII4s", raw[:16])
    expect(magic == b"COVM" and reserved == 0, f"{path}: bad header")
    expect(len(raw) == 16 + 8 * n * n, f"{path}: payload size {len(raw) - 16} for n={n}")
    return np.frombuffer(raw, dtype="<f8", offset=16).reshape(n, n)


def check_dump(text: str, dump: Path, L: int) -> None:
    row = estimate_row(text)
    truth = read_covm(dump / "truth.covm")
    expect(truth.shape == (L, L) and np.all(np.diag(truth) == 1.0),
           "dumped truth is not a unit-diagonal L x L matrix")
    c_norm = sym_norm(truth)
    for name, key in (("sample", "err_sample"), ("taper", "err_taper"), ("threshold", "err_thresh")):
        err = sym_norm(read_covm(dump / f"{name}.covm") - truth) / c_norm
        expect(close(float(row[key]), err, ESTIMATE_ERR_RTOL),
               f"dumped {name}: printed {row[key]} vs dense {err!r}")


def check_minimax(text: str, family: str, samples: int) -> None:
    kv = key_values(text)
    passes = {k: v for k, v in kv.items() if k.endswith(".pass")}
    expect(passes, f"minimax {family}: no certificate lines")
    bad = [k for k, v in passes.items() if v != "true"]
    expect(not bad, f"minimax {family}: failing certificates {bad}")
    if family != "f1":
        expect(int(kv["samples"]) == samples, f"minimax {family}: samples={kv['samples']}")
        expect(int(kv["pairs"]) == 2 * samples, f"minimax {family}: pairs={kv['pairs']}")
