"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints one `[criterion NN] PASS/FAIL` line carrying the measured
quantities next to the pinned tolerance, then asserts, so a teed run log
always records the complete scoreboard.  Criteria with a wall-clock budget
measure and enforce it.  The tests are defined in execution order; the
final one re-runs the full figure sweep twice and dominates the runtime.
A companion test checks the stated explanation of a criterion that fails.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from covlab import (
    BandedFamilySpec,
    ExperimentConfig,
    KernelTemplate,
    Matern,
    NuSequence,
    Periodic,
    PiecewiseConstant,
    SparseFamilySpec,
    SquaredExponential,
    assouad_terms,
    build_grid,
    certify_banded_membership,
    certify_sparse_membership,
    cholesky_psd,
    discretize,
    draw_paths,
    emit_csv,
    eps_star,
    flip_bit,
    gamma1,
    kl_gaussian,
    lift_matrix_norm_check,
    m_star,
    operator_quantities,
    run_sweep,
    sample_banded_theta,
    sample_cov,
    sample_sparse_theta,
    shuffle_cov,
    spectral_norm,
    taper_weight,
    taper_weight_matrix,
    taper_weight_sumform,
)
from covlab.cli import _CONFIG_KEYS, _experiment_config, parse_config_file
from covlab.experiments import build_prep, n_for_lambda

from helpers import random_psd, random_symmetric

REPO = Path(__file__).resolve().parent.parent

TAPER_IDENTITY_TOL = 1e-12
LIFT_REL_TOL = 1e-10
NORM_REL_TOL = 1e-8
SPARSITY_FLOOR = 1.0 - 1e-9
EFFDIM_CONST = 1.0 / math.sqrt(2.0 * math.pi)
EFFDIM_WINDOW = 0.10
RATE_TARGET = math.sqrt(10.0)
RATE_WINDOW = 0.30
KL_SIGMA_FACTOR = 3.0


def _report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_taper_identity():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 10_000
    for _ in range(cases):
        d = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.01, 1.5))
        x = rng.uniform(0.0, 1.0, size=d)
        y = rng.uniform(0.0, 1.0, size=d)
        worst = max(worst, abs(taper_weight(kappa, x, y) - taper_weight_sumform(kappa, x, y)))
    elapsed = time.perf_counter() - t0
    ok = worst <= TAPER_IDENTITY_TOL and elapsed < 1.0
    assert _report(
        1, ok,
        f"product vs signed-sum taper weight: max |diff| {worst:.3e} "
        f"(tol {TAPER_IDENTITY_TOL:g}) on {cases} cases in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_lift_norm_identity():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 33))
        L = M * int(rng.integers(1, 5))
        Sigma = random_psd(rng, M)
        _, _, rel = lift_matrix_norm_check(Sigma, build_grid(1, L))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= LIFT_REL_TOL and elapsed < 5.0
    assert _report(
        2, ok,
        f"block-matrix lift norm identity: max rel diff {worst:.3e} "
        f"(tol {LIFT_REL_TOL:g}) on 100 matrices in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_03_spectral_norm_oracle():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        A = random_symmetric(rng, n)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(A))))
        iterative = spectral_norm(A, method="arpack")
        worst = max(worst, abs(iterative - dense) / dense)
    elapsed = time.perf_counter() - t0
    ok = worst <= NORM_REL_TOL and elapsed < 10.0
    assert _report(
        3, ok,
        f"iterative vs dense spectral norm: max rel diff {worst:.3e} "
        f"(tol {NORM_REL_TOL:g}) on 50 matrices in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_04_truncation_pair():
    t0 = time.perf_counter()
    tables = {
        "m^-0.5": [m ** -0.5 for m in range(1, 401)],
        "m^-1": [m ** -1.0 for m in range(1, 401)],
        "m^-2": [m ** -2.0 for m in range(1, 401)],
        "exp(1-m)": [math.exp(-(m - 1)) for m in range(1, 401)],
        "exp(1-m^2)": [math.exp(-(m * m - 1)) for m in range(1, 28)],
    }
    checked = 0
    failures = []
    for name, vals in tables.items():
        nu = NuSequence.table(vals)
        for N in (1, 10, 100, 10_000):
            for d in (1, 2, 3):
                ms = m_star(nu, N, d)
                es = eps_star(nu, N, d)
                limit = min(N, len(vals))
                oracle = max(
                    min(vals[m - 1], math.sqrt(m ** d / N)) for m in range(1, limit + 1)
                )
                mid = math.sqrt(ms ** d / N)
                clauses = (
                    es == oracle,
                    N >= 2.0 ** -d * ms ** d,
                    es <= mid <= 2.0 ** (d / 2.0) * es,
                )
                checked += 1
                if not all(clauses):
                    failures.append((name, N, d, clauses))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    assert _report(
        4, ok,
        f"truncation depth/level pair: {checked} (tail, N, d) combos, "
        f"{len(failures)} violations {failures or ''} of oracle equality, the "
        f"cell-count bound, and the two-sided level sandwich, "
        f"in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_05_sparsity_floor():
    rng = np.random.default_rng(5)
    min_gap = math.inf
    min_floor = math.inf
    for i in range(50):
        variant = ("se", "matern", "periodic", "permuted", "pwc")[i % 5]
        lam = float(10.0 ** rng.uniform(-2.5, -0.3))
        if variant == "pwc":
            M = int(rng.integers(2, 9))
            L = M * int(rng.integers(5, 13))
            spec = PiecewiseConstant(values=random_psd(rng, M, jitter=0.05))
        else:
            L = int(rng.integers(40, 101))
            if variant == "se":
                spec = SquaredExponential(lengthscale=lam)
            elif variant == "matern":
                spec = Matern(lengthscale=lam, smoothness=float(rng.choice([0.5, 1.5, 2.5])))
            elif variant == "periodic":
                spec = Periodic(lengthscale=lam, period=float(rng.uniform(0.2, 0.8)))
            else:
                spec = SquaredExponential(lengthscale=lam)
                shuffle_seed = int(rng.integers(2**31))
        C = discretize(spec, build_grid(1, L))
        if variant == "permuted":
            C = shuffle_cov(C, shuffle_seed)[0]
        g1 = gamma1(C, 1.0)
        min_floor = min(min_floor, g1)
        for q in (0.25, 0.5):
            min_gap = min(min_gap, gamma1(C, q) - g1)
    ok = min_gap >= 0.0 and min_floor >= SPARSITY_FLOOR
    assert _report(
        5, ok,
        f"row-sparsity ordering on 50 kernels (all five variants, q in "
        f"{{0.25, 0.5, 1}}): min gamma1(q)-gamma1(1) {min_gap:.3e} (need >= 0), "
        f"min gamma1(1) {min_floor:.12f} (floor {SPARSITY_FLOOR})",
    )


def test_criterion_06_effective_dimension_scaling():
    t0 = time.perf_counter()
    grid = build_grid(1, 1250)
    lo, hi = (1.0 - EFFDIM_WINDOW) * EFFDIM_CONST, (1.0 + EFFDIM_WINDOW) * EFFDIM_CONST
    products = {}
    for lam in (1e-3, 10**-2.5, 1e-2, 10**-1.5):
        quant = operator_quantities(discretize(SquaredExponential(lengthscale=lam), grid))
        products[lam] = quant.r_eff * lam
    elapsed = time.perf_counter() - t0
    ok = all(lo <= v <= hi for v in products.values()) and elapsed < 30.0
    shown = ", ".join(f"{lam:g}: {v:.4f}" for lam, v in products.items())
    assert _report(
        6, ok,
        f"effective dimension scaling r_eff*lambda ({shown}) all within "
        f"[{lo:.4f}, {hi:.4f}] around {EFFDIM_CONST:.4f}, in {elapsed:.1f}s (budget 30s)",
    )


def _kernel_error_means(records, kernel: str) -> dict:
    rows = [r for r in records if r.kernel == kernel]
    return {
        "sample": float(np.mean([r.err_sample for r in rows])),
        "taper": float(np.mean([r.err_taper for r in rows])),
        "thresh": float(np.mean([r.err_thresh for r in rows])),
        "N": rows[0].N,
    }


def test_criterion_07_taper_advantage_smooth_kernels():
    cfg = ExperimentConfig(
        kernels=(KernelTemplate("se"), KernelTemplate("matern")),
        lambda_grid=(1e-3,),
        L=1250,
        trials=30,
        base_seed=0,
    )
    result = run_sweep(cfg)
    assert result.ok, result.failures
    parts = []
    ok = True
    for kernel in ("se", "matern"):
        m = _kernel_error_means(result.records, kernel)
        clause = (
            m["taper"] < m["thresh"] < m["sample"]
            and m["sample"] >= 1.0
            and m["taper"] <= 0.5 * m["sample"]
            and m["N"] == 35
        )
        ok = ok and clause
        parts.append(
            f"{kernel}: taper {m['taper']:.4f} < thresh {m['thresh']:.4f} "
            f"< sample {m['sample']:.4f}, sample >= 1, taper <= sample/2, N={m['N']}"
        )
    assert _report(
        7, ok, "smooth-kernel estimator ordering (30 trials) " + " | ".join(parts)
    )


def test_criterion_08_taper_breakdown_unordered_grids():
    cfg = ExperimentConfig(
        kernels=(KernelTemplate("permuted"), KernelTemplate("periodic")),
        lambda_grid=(10.0**-2.2,),
        L=1250,
        trials=30,
        base_seed=0,
    )
    result = run_sweep(cfg)
    assert result.ok, result.failures
    pm = _kernel_error_means(result.records, "permuted")
    pe = _kernel_error_means(result.records, "periodic")
    shuffled_thresh_wins = pm["thresh"] < pm["sample"]
    shuffled_taper_worse_than_zero = pm["taper"] > 1.0
    periodic_thresh_beats_taper = pe["thresh"] < pe["taper"]
    ok = shuffled_thresh_wins and shuffled_taper_worse_than_zero and periodic_thresh_beats_taper
    assert _report(
        8, ok,
        f"shuffled grid (30 trials): thresh {pm['thresh']:.4f} < sample "
        f"{pm['sample']:.4f} ({shuffled_thresh_wins}), taper {pm['taper']:.4f} > 1 "
        f"({shuffled_taper_worse_than_zero}) | periodic: thresh {pe['thresh']:.4f} "
        f"< taper {pe['taper']:.4f} ({periodic_thresh_beats_taper})",
    )


def test_criterion_08_companion_taper_sits_near_the_diagonal():
    """Why criterion 8's first clause fails: the tapered shuffled truth is near I.

    The taper weights W pair grid neighbours, and on a shuffled grid those
    carry almost no correlation, so the tapered truth T.W is close to
    diag T = I.  Keeping only the diagonal costs |T - I| / |T| = 1 - 1/|T|
    (T is PSD with unit diagonal and |T| > 2), and by the triangle inequality
    the population taper error |T.W - T| / |T| lies within |T.W - I| / |T|
    of that, below 1.  T.W is indefinite, so W is no PSD Schur multiplier.
    """
    lam = 10.0**-2.2
    cfg = ExperimentConfig(kernels=(KernelTemplate("permuted"),), lambda_grid=(lam,), L=1250)
    prep = build_prep(cfg.kernels[0], lam, cfg.L, cfg.d, n_for_lambda(cfg, lam), cfg.norm_tol)
    W = taper_weight_matrix(prep.kappa, prep.grid)
    for seed in (1, 2, 3):
        T = shuffle_cov(prep.C, seed)[0].entries
        norm = spectral_norm(T, method="dense")
        diag_err = spectral_norm(T - np.diag(np.diag(T)), method="dense") / norm
        assert diag_err == pytest.approx(1.0 - 1.0 / norm, abs=1e-12)
        TW = T * W
        eigs = np.linalg.eigvalsh(TW)
        near_identity = max(eigs[-1] - 1.0, 1.0 - eigs[0]) / norm
        taper_err = spectral_norm(TW - T, method="dense") / norm
        assert abs(taper_err - diag_err) <= near_identity
        assert taper_err < 1.0
        assert eigs[0] < 0.0


def test_criterion_09_sample_covariance_rate():
    grid = build_grid(1, 1250)
    N = 100
    trials = 30
    means = []
    for li, lam in enumerate((1e-3, 1e-2)):
        C = discretize(SquaredExponential(lengthscale=lam), grid)
        factor = cholesky_psd(C)
        norm = spectral_norm(C.entries, tol=1e-9)
        errs = []
        for t in range(trials):
            seed = int(
                np.random.SeedSequence((1009, li, t)).generate_state(1, np.uint64)[0]
            )
            S = draw_paths(factor, N, seed)
            Chat = sample_cov(S)
            errs.append(spectral_norm(Chat.entries - C.entries, tol=1e-6) / norm)
        means.append(float(np.mean(errs)))
    ratio = means[0] / means[1]
    lo, hi = (1.0 - RATE_WINDOW) * RATE_TARGET, (1.0 + RATE_WINDOW) * RATE_TARGET
    ok = lo <= ratio <= hi
    assert _report(
        9, ok,
        f"sample-covariance error ratio at fixed N={N} (30 trials): mean errors "
        f"{means[0]:.4f} / {means[1]:.4f}, ratio {ratio:.4f}, window "
        f"[{lo:.3f}, {hi:.3f}] around sqrt(10)",
    )


def test_criterion_09_companion_linear_regime():
    """Why criterion 9 fails: at N=100 the small lengthscale is in the linear regime.

    Koltchinskii & Lounici bound the sample-covariance error by
    max(sqrt(r/N), r/N).  With r = r_eff of se on L=1250, r/N crosses 1
    between the two lengthscales, so the predicted ratio is about 6.3, not
    sqrt(10), and lies above the criterion's window.
    """
    grid = build_grid(1, 1250)
    N = 100
    r1, r2 = (
        operator_quantities(discretize(SquaredExponential(lengthscale=lam), grid)).r_eff
        for lam in (1e-3, 1e-2)
    )
    assert r1 == pytest.approx(399.26, abs=0.01)
    assert r2 == pytest.approx(39.95, abs=0.01)
    assert r1 / N > 1.0 > r2 / N

    def rate(x):
        return max(math.sqrt(x), x)

    predicted = rate(r1 / N) / rate(r2 / N)
    assert predicted == pytest.approx(6.32, abs=0.005)
    assert predicted > (1.0 + RATE_WINDOW) * RATE_TARGET


def test_criterion_10_lower_bound_certificates():
    t0 = time.perf_counter()
    nu = NuSequence.table([m**-0.5 for m in range(1, 1025)])
    banded = BandedFamilySpec(kind="f2", r=256, N=200, tau=0.003, nu=nu)
    banded_thetas = [sample_banded_theta(banded, 0, i) for i in range(50)]
    banded_fail = [
        (i, [c.name for c in rep.checks if not c.passed])
        for i, rep in enumerate(certify_banded_membership(banded, t) for t in banded_thetas)
        if not all(c.passed for c in rep.checks)
    ]

    sparse = SparseFamilySpec(
        q=0.5, gamma1_q=3.0, gamma2=math.sqrt(2.0 * math.log(64.0)), nu_const=0.02, N=7
    )
    sparse_thetas = [sample_sparse_theta(sparse, 0, i) for i in range(50)]
    sparse_fail = [
        (i, [c.name for c in rep.checks if not c.passed])
        for i, rep in enumerate(
            certify_sparse_membership(sparse, t, seed=9000 + i)
            for i, t in enumerate(sparse_thetas)
        )
        if not all(c.passed for c in rep.checks)
    ]

    pairs = []
    for i, theta in enumerate(banded_thetas):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((0, 0xF11B, i))))
        for pos in gen.integers(0, banded.gamma_N, size=2):
            pairs.append((theta, flip_bit(theta, int(pos))))
    assouad = assouad_terms(banded, pairs)
    pair_fail = [c.name for c in assouad.checks if not c.passed]
    min_slack = min(
        c.slack for c in assouad.checks if c.name in ("kl_vs_frobenius", "frobenius_budget")
    )
    elapsed = time.perf_counter() - t0
    ok = not banded_fail and not sparse_fail and not pair_fail and min_slack >= 0.0 and elapsed < 60.0
    assert _report(
        10, ok,
        f"lower-bound families: banded membership failures {banded_fail or 0}/50, "
        f"sparse membership failures {sparse_fail or 0}/50, pair checks over "
        f"{len(pairs)} single-flip pairs failed {pair_fail or 0} "
        f"(worst kl {assouad.worst_kl:.3e}, worst frob^2 {assouad.worst_frob2:.3e}, "
        f"min slack {min_slack:.3e}), in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_11_kl_closed_form_vs_monte_carlo():
    rng = np.random.default_rng(11)
    draws = 100_000
    worst_z = 0.0
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        S1 = A @ A.T + 0.5 * np.eye(3)
        B = rng.standard_normal((3, 3))
        S2 = B @ B.T + 0.5 * np.eye(3)
        closed = kl_gaussian(S1, S2)
        X = rng.standard_normal((draws, 3)) @ np.linalg.cholesky(S1).T
        q1 = np.einsum("ij,ji->i", X, np.linalg.solve(S1, X.T))
        q2 = np.einsum("ij,ji->i", X, np.linalg.solve(S2, X.T))
        log_ratio = 0.5 * ((np.linalg.slogdet(S2)[1] - np.linalg.slogdet(S1)[1]) + (q2 - q1))
        se = float(log_ratio.std(ddof=1)) / math.sqrt(draws)
        worst_z = max(worst_z, abs(closed - float(log_ratio.mean())) / se)
    ok = worst_z <= KL_SIGMA_FACTOR
    assert _report(
        11, ok,
        f"closed-form divergence vs {draws}-draw log-likelihood-ratio estimate on "
        f"20 random 3x3 pairs: worst |z| {worst_z:.3f} (limit {KL_SIGMA_FACTOR})",
    )


def test_criterion_12_sweep_determinism(tmp_path):
    merged = {k: default for k, (_, default) in _CONFIG_KEYS.items()}
    merged.update(parse_config_file(REPO / "configs" / "figure_se_matern.cfg"))
    cfg = _experiment_config(merged)
    t0 = time.perf_counter()
    first = run_sweep(cfg, threads=1)
    second = run_sweep(cfg, threads=3)
    elapsed = time.perf_counter() - t0
    assert first.ok, first.failures
    assert second.ok, second.failures
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    emit_csv(list(first.records), path_a, kind="trials")
    emit_csv(list(second.records), path_b, kind="trials")
    identical = path_a.read_bytes() == path_b.read_bytes()
    ok = identical and len(first.records) == len(second.records) == 720
    assert _report(
        12, ok,
        f"full figure sweep twice (threads 1 vs 3, {len(first.records)} trials "
        f"each): trial CSVs byte-identical {identical}, "
        f"{path_a.stat().st_size} bytes, {elapsed:.0f}s total",
    )
