"""Lower-bound parameter families as explicit matrices, with certificates.

Three banded families (a diagonal one and two cell-linked ones at large and
small effective dimension) and one sparse block family are built exactly as
matrices over equal-volume cells of [0,1]^d.  Certifiers re-check every
finite membership inequality numerically and report measured slack; nothing
is assumed to hold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericError, UsageError
from .diagnostics import NuSequence, kl_gaussian, m_star
from .sampling import CholFactor, draw_paths

__all__ = [
    "BandedFamilySpec",
    "SparseFamilySpec",
    "ThetaIndex",
    "SparseThetaIndex",
    "CheckResult",
    "CertificateReport",
    "AssouadReport",
    "build_f1_banded",
    "build_f2_banded",
    "build_f3_banded",
    "build_sparse_theta",
    "certify_banded_membership",
    "certify_sparse_membership",
    "assouad_terms",
    "sample_banded_theta",
    "sample_sparse_theta",
    "flip_bit",
]

# Pinned constant for the banded tail certificate: the off-diagonal row mass
# is at most a 1/4 Gershgorin budget, so tails stay below (5/4) nu_m |C|.
_TAIL_CONST = 1.25


# ------------------------------------------------------------- reports ----


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    slack: float
    note: str = ""


@dataclass(frozen=True)
class CertificateReport:
    family: str
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"family={self.family}"]
        for c in self.checks:
            lines.append(f"{c.name}.pass={'true' if c.passed else 'false'}")
            lines.append(f"{c.name}.measured={c.measured!r}")
            lines.append(f"{c.name}.bound={c.bound!r}")
            lines.append(f"{c.name}.slack={c.slack!r}")
            if c.note:
                lines.append(f"{c.name}.note={c.note}")
        return "\n".join(lines)


def _check(name: str, measured: float, bound: float, kind: str, note: str = "") -> CheckResult:
    """kind: 'le' measured <= bound, 'ge' measured >= bound, 'eq0' |measured| <= bound."""
    if kind == "le":
        slack = bound - measured
    elif kind == "ge":
        slack = measured - bound
    elif kind == "eq0":
        slack = bound - abs(measured)
    else:
        raise UsageError(f"unknown check kind {kind}")
    return CheckResult(
        name=name, passed=slack >= 0.0, measured=measured, bound=bound,
        slack=slack, note=note,
    )


# ------------------------------------------------------- banded families ----


@dataclass(frozen=True)
class BandedFamilySpec:
    """Parameters of the banded lower-bound families.

    kind 'f1' is the diagonal family; 'f2' links active cells forward by 2
    to (2K-1) cells at amplitude tau*h_N (needs r > m_star^d); 'f3' links
    the first half of the cells forward at amplitude tau/sqrt(N r)
    (needs r < m_star^d).
    """

    kind: str
    r: int
    N: int
    d: int = 1
    w: float = 1.0
    tau: float = 0.003
    nu: Optional[NuSequence] = None
    m_star: int = field(init=False, default=0)
    K: int = field(init=False, default=0)
    h_N: float = field(init=False, default=0.0)
    gamma_N: int = field(init=False, default=0)
    S: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.kind not in ("f1", "f2", "f3"):
            raise UsageError(f"unknown banded family kind {self.kind!r}")
        if self.r <= 1:
            raise UsageError(f"family needs r > 1, got r={self.r}")
        if self.N < 1:
            raise UsageError(f"family needs N >= 1, got N={self.N}")
        if self.d < 1:
            raise UsageError(f"family needs d >= 1, got d={self.d}")
        if not self.w > 0:
            raise UsageError(f"scale constant w must be > 0, got {self.w}")
        tau_cap = 4.0 ** (-(self.d + 1))
        if not (0.0 < self.tau < tau_cap):
            raise UsageError(
                f"tau must lie in (0, 4^-(d+1)) = (0, {tau_cap:g}), got {self.tau}"
            )
        if self.kind == "f1":
            if not self.N > math.log(self.r):
                raise UsageError(
                    f"diagonal family needs N > log r: N={self.N}, log r="
                    f"{math.log(self.r):.3f}"
                )
            return
        if self.nu is None:
            raise UsageError(f"family {self.kind} needs a tail sequence nu")
        ms = m_star(self.nu, self.N, self.d)
        K = max(1, int(math.floor((ms - 1) / (2.0 * math.sqrt(self.d)))))
        S = round(self.r ** (1.0 / self.d))
        if S**self.d != self.r:
            raise UsageError(
                f"r must be a perfect d-th power (cells per axis), got r={self.r}, d={self.d}"
            )
        if self.kind == "f2":
            if self.r <= ms**self.d:
                raise UsageError(
                    f"F2 requires r > m_star^d: r={self.r}, m_star^d={ms**self.d}"
                )
            if not self.N > math.log(self.r):
                raise UsageError(
                    f"F2 needs N > log r: N={self.N}, log r={math.log(self.r):.3f}"
                )
            gamma = K**self.d
            h_N = float(K) ** (-self.d) * math.sqrt(ms**self.d / self.N)
        else:  # f3
            if self.r >= ms**self.d:
                raise UsageError(
                    f"F3 requires r < m_star^d: r={self.r}, m_star^d={ms**self.d}"
                )
            if S % 2 != 0:
                raise UsageError(f"F3 needs an even cell count per axis, got S={S}")
            gamma = (S // 2) ** self.d
            h_N = 0.0
        object.__setattr__(self, "m_star", ms)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "gamma_N", gamma)
        object.__setattr__(self, "h_N", h_N)

    @property
    def amplitude(self) -> float:
        """Off-diagonal entry value of a perturbed cell pair."""
        if self.kind == "f2":
            return self.tau * self.h_N
        if self.kind == "f3":
            return self.tau / math.sqrt(self.N * self.r)
        raise UsageError("the diagonal family has no off-diagonal amplitude")

    def active_cells(self) -> list:
        """Perturbation cells in row-major order; one theta bit per cell."""
        if self.kind == "f2":
            per_axis = range(self.K)
        elif self.kind == "f3":
            per_axis = range(self.S // 2)
        else:
            raise UsageError("the diagonal family has no perturbation cells")
        return list(itertools.product(per_axis, repeat=self.d))

    def linked_axis_range(self, c_i: int) -> range:
        """Cells linked to an active cell along one axis: forward by 2."""
        upper = 2 * self.K - 1 if self.kind == "f2" else self.S - 1
        return range(c_i + 2, upper + 1)


@dataclass(frozen=True)
class ThetaIndex:
    """Hypercube index for the banded families: one bit per active cell."""

    bits: tuple

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise UsageError("theta bits must be 0/1")

    @property
    def weight(self) -> int:
        return sum(self.bits)


def build_f1_banded(spec: BandedFamilySpec) -> list:
    """All r+1 members of the diagonal family: w*I with one shrunk entry."""
    if spec.kind != "f1":
        raise UsageError(f"spec is for kind {spec.kind!r}, expected f1")
    delta = spec.w * math.sqrt(spec.tau * math.log(spec.r) / spec.N)
    if delta >= spec.w:
        raise NumericError(
            f"diagonal perturbation {delta:.3e} destroys positive semidefiniteness"
        )
    members = [spec.w * np.eye(spec.r)]
    for ell in range(spec.r):
        m = spec.w * np.eye(spec.r)
        m[ell, ell] -= delta
        members.append(m)
    # Construction self-check: the pairwise separation is exactly delta.
    for m in members[1:]:
        sep = float(np.max(np.abs(members[0] - m)))
        if not math.isclose(sep, delta, rel_tol=1e-12):
            raise NumericError("diagonal family separation check failed")
    return members


def _build_linked(spec: BandedFamilySpec, theta: ThetaIndex) -> np.ndarray:
    cells = spec.active_cells()
    if len(theta.bits) != len(cells):
        raise UsageError(
            f"theta has {len(theta.bits)} bits; family has {len(cells)} cells"
        )
    S, d = spec.S, spec.d
    dims = (S,) * d
    upper = np.zeros((spec.r, spec.r), dtype=np.float64)
    amp = spec.amplitude
    for bit, cell in zip(theta.bits, cells):
        if not bit:
            continue
        row = int(np.ravel_multi_index(cell, dims))
        axis_ranges = [spec.linked_axis_range(c_i) for c_i in cell]
        for target in itertools.product(*axis_ranges):
            col = int(np.ravel_multi_index(target, dims))
            # Links always point forward, so (row, col) lands strictly above
            # the diagonal and no two cells write the same entry.
            if upper[row, col] != 0.0:
                raise NumericError("cell links overlapped; construction invariant broken")
            upper[row, col] = amp
    return np.eye(spec.r) + upper + upper.T


def build_f2_banded(spec: BandedFamilySpec, theta: ThetaIndex) -> np.ndarray:
    """Member of the large-r linked family (unit diagonal, tau*h_N links)."""
    if spec.kind != "f2":
        raise UsageError(f"spec is for kind {spec.kind!r}, expected f2")
    return _build_linked(spec, theta)


def build_f3_banded(spec: BandedFamilySpec, theta: ThetaIndex) -> np.ndarray:
    """Member of the small-r linked family (amplitude tau/sqrt(N r))."""
    if spec.kind != "f3":
        raise UsageError(f"spec is for kind {spec.kind!r}, expected f3")
    return _build_linked(spec, theta)


# ----------------------------------------------------- banded certifier ----


def _cell_supdist(delta_cells: tuple, S: int) -> float:
    """Largest point distance between two cells that are delta_cells apart."""
    return math.sqrt(sum(((abs(g) + 1) / S) ** 2 for g in delta_cells))


def certify_banded_membership(spec: BandedFamilySpec, theta: ThetaIndex) -> CertificateReport:
    """Numeric membership certificate for a linked-family member.

    Checks: unit lifted trace, Gershgorin eigenvalue floor, the 5/4 column
    bound, the effective-dimension window, and the banding tails (exactly
    zero beyond the truncation index, tail-sequence bounded below it).
    """
    if spec.kind not in ("f2", "f3"):
        raise UsageError("membership certificates apply to the linked families")
    Sigma = _build_linked(spec, theta)
    r, S, d = spec.r, spec.S, spec.d
    eigs = np.linalg.eigvalsh(Sigma)
    lam_min, norm = float(eigs[0]), float(np.max(np.abs(eigs)))
    checks = []

    trace_lift = float(np.trace(Sigma)) / r  # h * matrix trace on any aligned lift
    checks.append(_check("lifted_trace", trace_lift - 1.0, 1e-12, "eq0",
                         note="measured is trace-1; equals sup k(x,x)=1"))
    # Sum with the diagonal zeroed, not row-sum-minus-diagonal: the mass is
    # tiny next to the unit diagonal and would drown in cancellation noise.
    off_abs = np.abs(Sigma)
    np.fill_diagonal(off_abs, 0.0)
    off_row = float(np.max(off_abs.sum(axis=1)))
    budget = spec.tau * spec.h_N * (2 * spec.K) ** d if spec.kind == "f2" else \
        spec.amplitude * (S - 2) ** d
    checks.append(_check("gershgorin_row_mass", off_row,
                         min(budget * (1.0 + 1e-12), 0.25), "le",
                         note="off-diagonal row mass within the 1/4 budget"))
    checks.append(_check("lambda_min", lam_min, 0.75 - 1e-10, "ge"))
    col_norm = float(np.max(np.sum(np.abs(Sigma), axis=0)))
    checks.append(_check("l1_norm", col_norm, 1.25, "le"))
    r_eff = r / norm
    checks.append(_check("r_eff_lower", r_eff, 0.8 * r, "ge"))
    checks.append(_check("r_eff_upper", r_eff, r * (1.0 + 1e-10), "le"))

    # Banding tails of the lifted kernel, exact at cell level.  The row
    # integral beyond radius m * r_eff^(-1/d) is summed over whole cells
    # whose farthest point crosses the radius (an upper bound on the sup).
    cell_vol = 1.0 / r
    op_norm = norm / r
    cells = spec.active_cells()
    rows = set()
    for bit, cell in zip(theta.bits, cells):
        if bit:
            rows.add(cell)
            for target in itertools.product(*[spec.linked_axis_range(c) for c in cell]):
                rows.add(target)
    dims = (S,) * d
    for m in range(1, spec.m_star + 3):
        radius = m * r_eff ** (-1.0 / d)
        worst = 0.0
        for cell in rows:
            i = int(np.ravel_multi_index(cell, dims))
            row = Sigma[i]
            tail = 0.0
            for j in np.nonzero(row)[0]:
                other = np.unravel_index(int(j), dims)
                gap = tuple(o - c for o, c in zip(other, cell))
                if _cell_supdist(gap, S) >= radius:
                    tail += abs(float(row[j])) * cell_vol
            worst = max(worst, tail)
        if m > spec.m_star - 1:
            checks.append(_check(f"tail_zero_m{m}", worst, 0.0, "eq0",
                                 note="support ends before this radius"))
        else:
            bound = _TAIL_CONST * spec.nu.nu(m) * op_norm
            checks.append(_check(f"tail_bound_m{m}", worst, bound, "le"))
    return CertificateReport(family=spec.kind, checks=tuple(checks))


# ------------------------------------------------------- sparse family ----


@dataclass(frozen=True)
class SparseFamilySpec:
    """Sparse thresholding lower-bound family over r+1 equal cells.

    The declared capacity gamma2 fixes the partition size r; eps and the
    row sparsity ell follow from the declared sparsity budget gamma1_q at
    exponent q.  nu_const must be small against the declared (M, beta).
    """

    q: float
    gamma1_q: float
    gamma2: float
    nu_const: float
    N: int
    M_const: float = 2.0
    beta: float = 2.0
    r: int = field(init=False, default=0)
    r_star: int = field(init=False, default=0)
    eps: float = field(init=False, default=0.0)
    ell: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise UsageError(f"q must lie in (0, 1), got {self.q}")
        if self.gamma1_q < 1.0:
            raise UsageError(f"gamma1 budget must be >= 1, got {self.gamma1_q}")
        if not self.gamma2 > 0:
            raise UsageError(f"gamma2 must be > 0, got {self.gamma2}")
        if self.N < 1:
            raise UsageError(f"need N >= 1, got {self.N}")
        if not self.beta > 1.0:
            raise UsageError(f"beta must be > 1, got {self.beta}")
        if not self.M_const > 0:
            raise UsageError(f"M must be > 0, got {self.M_const}")
        nu_cap = (1.0 / (3.0 * self.M_const)) ** (1.0 / (1.0 - self.q))
        if not (0.0 < self.nu_const < nu_cap):
            raise UsageError(
                f"nu must lie in (0, (3M)^(-1/(1-q))) = (0, {nu_cap:.6g}), "
                f"got {self.nu_const}"
            )
        var_cap = (self.beta - 1.0) / (54.0 * self.beta)
        if not self.nu_const**2 < var_cap:
            raise UsageError(
                f"nu^2 must be < (beta-1)/(54 beta) = {var_cap:.6g}, "
                f"got nu^2 = {self.nu_const**2:.6g}"
            )
        # The 1e-9 guard absorbs transcendental rounding when gamma2 was
        # derived from an integer target (exp(log(r+1)) can land 1 ulp low).
        r = int(math.floor(math.exp(self.gamma2**2 / 2.0) + 1e-9)) - 1
        if r < 2:
            raise UsageError(f"gamma2={self.gamma2} gives partition size r={r} < 2")
        eps = self.nu_const * math.sqrt(math.log(r) / self.N)
        ell = max(int(math.ceil(self.gamma1_q * eps ** (-self.q) / 2.0)) - 1, 0)
        if ell > r // 2:
            raise UsageError(
                f"row sparsity ell={ell} exceeds r*={r // 2}; shrink gamma1_q or nu"
            )
        if ell * eps > 0.5:
            raise UsageError(
                f"ell * eps = {ell * eps:.4g} > 1/2; the family would not have "
                "unit operator norm"
            )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_star", r // 2)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "ell", ell)


@dataclass(frozen=True)
class SparseThetaIndex:
    """Sparse hypercube index: active-row bits xi plus the row supports.

    rows[m] lists the ell support columns of potential active row m; all
    supports live in the last r_star coordinates of the r-block.
    """

    xi: tuple
    rows: tuple

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.xi):
            raise UsageError("xi bits must be 0/1")

    @property
    def weight(self) -> int:
        return sum(self.xi)


def _validate_sparse_theta(spec: SparseFamilySpec, theta: SparseThetaIndex) -> None:
    if len(theta.xi) != spec.r_star or len(theta.rows) != spec.r_star:
        raise UsageError(
            f"theta must carry {spec.r_star} bits and row supports, got "
            f"{len(theta.xi)} and {len(theta.rows)}"
        )
    lo = spec.r - spec.r_star
    counts = np.zeros(spec.r, dtype=np.int64)
    for support in theta.rows:
        cols = sorted(set(int(c) for c in support))
        if len(cols) != spec.ell:
            raise UsageError(
                f"each row support must have exactly ell={spec.ell} distinct "
                f"columns, got {len(cols)}"
            )
        if cols and (cols[0] < lo or cols[-1] >= spec.r):
            raise UsageError(
                f"support columns must lie in the last r*={spec.r_star} "
                f"coordinates [{lo}, {spec.r})"
            )
        for c in cols:
            counts[c] += 1
    if int(counts.max(initial=0)) > 2 * spec.ell:
        raise UsageError(
            f"assembled supports violate the column cap 2*ell={2 * spec.ell}"
        )


def build_sparse_theta(spec: SparseFamilySpec, theta: SparseThetaIndex) -> np.ndarray:
    """Assemble the (r+1) x (r+1) block member Sigma(theta)."""
    _validate_sparse_theta(spec, theta)
    r = spec.r
    P = np.zeros((r, r), dtype=np.float64)
    for m, (bit, support) in enumerate(zip(theta.xi, theta.rows)):
        if not bit:
            continue
        for c in support:
            P[m, int(c)] = 1.0
            P[int(c), m] = 1.0
    block = 0.5 * (np.eye(r) + spec.eps * P)
    Sigma = np.zeros((r + 1, r + 1), dtype=np.float64)
    Sigma[0, 0] = 1.0
    Sigma[1:, 1:] = block
    return Sigma


def _sparse_gamma1_cells(Sigma: np.ndarray, q: float, norm: float) -> float:
    """Gamma1(q) of the lifted kernel, computed exactly at cell level."""
    abs_s = np.abs(Sigma)
    k_inf = float(np.max(abs_s))
    row_q = float(np.max(np.sum(abs_s**q, axis=1)))
    return row_q * k_inf ** (1.0 - q) / norm


def _sparse_gamma1_q0(Sigma: np.ndarray, norm: float) -> float:
    """q=0 variant: support counting with the 0^0 = 0 convention."""
    support = float(np.max(np.sum(Sigma != 0.0, axis=1)))
    k_inf = float(np.max(np.abs(Sigma)))
    return support * k_inf / norm


def certify_sparse_membership(
    spec: SparseFamilySpec,
    theta: SparseThetaIndex,
    *,
    mc_samples: int = 2000,
    seed: int = 0,
) -> CertificateReport:
    """Numeric membership certificate for a sparse-family member.

    Checks the sparsity budget, the Monte Carlo capacity bound with a
    one-sided 3-sigma allowance, the support-count product bound, and unit
    operator norm.
    """
    Sigma = build_sparse_theta(spec, theta)
    n = Sigma.shape[0]
    eigs = np.linalg.eigvalsh(Sigma)
    norm = float(np.max(np.abs(eigs)))
    checks = [
        _check("lambda_min", float(eigs[0]), 0.0, "ge",
               note="members must stay positive definite"),
        _check("op_norm_unit", norm - 1.0, 1e-10, "eq0"),
    ]
    g1 = _sparse_gamma1_cells(Sigma, spec.q, norm)
    checks.append(_check("gamma1_budget", g1, spec.gamma1_q, "le"))
    cap_bound = math.sqrt(2.0 * math.log(n))
    checks.append(_check("cap_vs_gamma2", cap_bound, spec.gamma2 * (1 + 1e-12), "le",
                         note="sqrt(2 log(r+1)) <= declared gamma2"))
    lower = np.linalg.cholesky(Sigma)
    draws = draw_paths(CholFactor(lower=lower, jitter_used=0.0, grid_h=1.0 / n),
                       mc_samples, seed)
    maxima = draws.paths.max(axis=1)
    est = float(np.mean(maxima))
    se = float(np.std(maxima, ddof=1)) / math.sqrt(mc_samples)
    checks.append(_check("capacity_mc", est, cap_bound + 3.0 * se, "le",
                         note=f"mc mean of grid maxima, se={se:.3e}, one-sided 3 sigma"))
    g0 = _sparse_gamma1_q0(Sigma, norm)
    checks.append(_check("support_product", g0 * math.exp(-spec.gamma2**2 / 2.0),
                         1.0, "le"))
    return CertificateReport(family="sparse", checks=tuple(checks))


# ------------------------------------------------------- theta sampling ----


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def sample_banded_theta(spec: BandedFamilySpec, seed: int, index: int) -> ThetaIndex:
    """Uniform random theta for a linked family, from substream (seed, index)."""
    gen = _substream(seed, index)
    bits = tuple(int(b) for b in gen.integers(0, 2, size=spec.gamma_N))
    return ThetaIndex(bits=bits)


def sample_sparse_theta(spec: SparseFamilySpec, seed: int, index: int) -> SparseThetaIndex:
    """Uniform xi plus rejection-sampled supports meeting the column cap."""
    gen = _substream(seed, index)
    xi = tuple(int(b) for b in gen.integers(0, 2, size=spec.r_star))
    lo = spec.r - spec.r_star
    for _ in range(1000):
        rows = tuple(
            tuple(sorted(int(c) for c in
                         gen.choice(np.arange(lo, spec.r), size=spec.ell, replace=False)))
            for _ in range(spec.r_star)
        )
        counts = np.zeros(spec.r, dtype=np.int64)
        for support in rows:
            for c in support:
                counts[c] += 1
        if int(counts.max(initial=0)) <= 2 * spec.ell:
            return SparseThetaIndex(xi=xi, rows=rows)
    raise NumericError("could not sample supports under the column cap in 1000 tries")


def flip_bit(theta, position: int):
    """Hamming-1 neighbor: flip one bit (xi bit for the sparse family)."""
    if isinstance(theta, ThetaIndex):
        bits = list(theta.bits)
        if not 0 <= position < len(bits):
            raise UsageError(
                f"bit position {position} outside 0..{len(bits) - 1}"
            )
        bits[position] = 1 - bits[position]
        return ThetaIndex(bits=tuple(bits))
    if isinstance(theta, SparseThetaIndex):
        xi = list(theta.xi)
        if not 0 <= position < len(xi):
            raise UsageError(
                f"bit position {position} outside 0..{len(xi) - 1}"
            )
        xi[position] = 1 - xi[position]
        return SparseThetaIndex(xi=tuple(xi), rows=theta.rows)
    raise UsageError(f"unknown theta type {type(theta).__name__}")


# ------------------------------------------------------------- Assouad ----


@dataclass(frozen=True)
class AssouadReport:
    alpha_min: float
    worst_kl: float
    worst_frob2: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [
            f"alpha_min={self.alpha_min!r}",
            f"worst_kl={self.worst_kl!r}",
            f"worst_frob2={self.worst_frob2!r}",
        ]
        for c in self.checks:
            lines.append(f"{c.name}.pass={'true' if c.passed else 'false'}")
            lines.append(f"{c.name}.measured={c.measured!r}")
            lines.append(f"{c.name}.bound={c.bound!r}")
            lines.append(f"{c.name}.slack={c.slack!r}")
        return "\n".join(lines)


def _banded_pair_data(spec: BandedFamilySpec, a: ThetaIndex, b: ThetaIndex):
    Sa = _build_linked(spec, a)
    Sb = _build_linked(spec, b)
    h_bits = sum(x != y for x, y in zip(a.bits, b.bits))
    cells = spec.active_cells()
    dims = (spec.S,) * spec.d
    # Read each bit back from the matrix through the cell's own forward
    # links only; whole-row comparison would double-count symmetric entries
    # landing on active cells that serve as other cells' targets.
    h_matrix = 0
    for cell in cells:
        i = int(np.ravel_multi_index(cell, dims))
        targets = [
            int(np.ravel_multi_index(t, dims))
            for t in itertools.product(
                *[spec.linked_axis_range(c) for c in cell]
            )
        ]
        if targets and not np.array_equal(Sa[i, targets], Sb[i, targets]):
            h_matrix += 1
    # Witness: indicator of the target half-block the links point into.
    base = spec.K if spec.kind == "f2" else spec.S // 2
    v = np.zeros(spec.r)
    for target in itertools.product(range(base, 2 * base), repeat=spec.d):
        v[int(np.ravel_multi_index(target, dims))] = 1.0
    # Exact per-cell witness mass: the per-axis link range clipped to the
    # target block has min(base, upper-c_i-1) cells.
    upper = 2 * spec.K - 1 if spec.kind == "f2" else spec.S - 1
    pred2 = 0.0
    for bit_a, bit_b, cell in zip(a.bits, b.bits, cells):
        if bit_a == bit_b:
            continue
        count = 1
        for c_i in cell:
            lo = max(c_i + 2, base)
            count *= max(0, upper - lo + 1)
        pred2 += (spec.amplitude * count) ** 2
    return Sa, Sb, h_bits, h_matrix, v, math.sqrt(pred2)


def _sparse_pair_data(spec: SparseFamilySpec, a: SparseThetaIndex, b: SparseThetaIndex):
    if a.rows != b.rows:
        raise UsageError("sparse pairs must share the same row supports")
    Sa = build_sparse_theta(spec, a)
    Sb = build_sparse_theta(spec, b)
    h_bits = sum(x != y for x, y in zip(a.xi, b.xi))
    h_matrix = sum(
        1 for m in range(spec.r_star) if not np.array_equal(Sa[1 + m], Sb[1 + m])
    )
    v = np.zeros(spec.r + 1)
    v[1 + spec.r - spec.r_star:] = 1.0
    pred = math.sqrt(h_bits) * spec.eps * spec.ell / 2.0
    return Sa, Sb, h_bits, h_matrix, v, pred


def assouad_terms(spec, pairs: Sequence) -> AssouadReport:
    """Per-pair separation, KL, and Frobenius bookkeeping for Assouad's lemma.

    Returns the smallest separation-per-bit alpha over the pairs, the worst
    KL and squared-Frobenius values over Hamming-1 pairs, and pass/fail
    checks of the witness-vector predictions and proof inequalities.
    """
    if not pairs:
        raise UsageError("need at least one theta pair")
    banded = isinstance(spec, BandedFamilySpec)
    if banded and spec.kind == "f1":
        raise UsageError("Assouad bookkeeping applies to the hypercube families")
    alpha_min = math.inf
    worst_kl = 0.0
    worst_frob2 = 0.0
    checks = []
    hamming_ok = True
    witness_ok_slack = math.inf
    witness_eq_worst = 0.0
    kl_ratio_worst = 0.0
    frob_slack_min = math.inf
    alpha_sparse_slack = math.inf
    for a, b in pairs:
        if banded:
            Sa, Sb, h_bits, h_matrix, v, pred = _banded_pair_data(spec, a, b)
        else:
            Sa, Sb, h_bits, h_matrix, v, pred = _sparse_pair_data(spec, a, b)
        if h_bits == 0:
            raise UsageError("pairs must differ in at least one bit")
        hamming_ok = hamming_ok and (h_bits == h_matrix)
        delta = Sa - Sb
        dnorm = float(np.max(np.abs(np.linalg.eigvalsh(delta)))) if delta.any() else 0.0
        frob2 = float(np.sum(delta * delta))
        alpha = dnorm / h_bits
        alpha_min = min(alpha_min, alpha)
        wnorm = float(np.linalg.norm(delta @ v))
        vnorm = float(np.linalg.norm(v))
        witness_eq_worst = max(witness_eq_worst, abs(wnorm - pred))
        if vnorm > 0 and h_bits > 0:
            witness_ok_slack = min(witness_ok_slack, alpha - wnorm / (vnorm * h_bits))
        if not banded:
            alpha_sparse_slack = min(
                alpha_sparse_slack, alpha - spec.ell * spec.eps / spec.r
            )
        if h_bits == 1:
            kl = max(kl_gaussian(Sa, Sb), kl_gaussian(Sb, Sa))
            worst_kl = max(worst_kl, kl)
            worst_frob2 = max(worst_frob2, frob2)
            if frob2 > 0:
                kl_ratio_worst = max(kl_ratio_worst, kl / frob2)
            if banded and spec.kind == "f2":
                fb = 2.0 * spec.tau**2 * spec.h_N**2 * (2 * spec.K) ** spec.d
                frob_slack_min = min(frob_slack_min, fb - frob2)
    checks.append(_check("hamming_two_ways", 0.0 if hamming_ok else 1.0, 0.0, "eq0",
                         note="bit count equals matrix row-support count"))
    checks.append(_check("witness_exact", witness_eq_worst, 1e-10, "eq0",
                         note="measured |delta v| matches the combinatorial count"))
    if witness_ok_slack is not math.inf:
        checks.append(_check("witness_lower_bound", witness_ok_slack, -1e-12, "ge",
                             note="alpha >= |delta v| / (|v| H)"))
    if not banded and alpha_sparse_slack is not math.inf:
        checks.append(_check("alpha_vs_ell_eps_over_r", alpha_sparse_slack, -1e-12, "ge"))
    if kl_ratio_worst > 0.0:
        checks.append(_check("kl_vs_frobenius", kl_ratio_worst, 16.0 / 9.0, "le",
                             note="KL <= (16/9) Frobenius^2 on Hamming-1 pairs"))
    if frob_slack_min is not math.inf:
        checks.append(_check("frobenius_budget", -frob_slack_min, 0.0, "le",
                             note="Frobenius^2 <= 2 tau^2 h_N^2 (2K)^d"))
    return AssouadReport(
        alpha_min=alpha_min, worst_kl=worst_kl, worst_frob2=worst_frob2,
        checks=tuple(checks),
    )
