"""Lower-bound parameter families as explicit matrices, with certificates.

Two cell-linked banded families (at large and small effective dimension)
and one sparse block family are built exactly as matrices over
equal-volume cells of [0,1]^d.  Certifiers re-check every finite
membership inequality numerically and report measured slack; nothing is
assumed to hold.  The diagonal family enters its bound only through its
separation, which ``diagonal_separation`` gives in closed form.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericError, UsageError
from .diagnostics import NuSequence, gamma2, kl_gaussian_both, m_star
from .grid_kernel import CovMatrix
from .sampling import cholesky_psd

__all__ = [
    "BandedFamilySpec",
    "SparseFamilySpec",
    "ThetaIndex",
    "SparseThetaIndex",
    "CheckResult",
    "CertificateReport",
    "AssouadReport",
    "DIAGONAL_TAU",
    "diagonal_separation",
    "build_linked_banded",
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
# Monte Carlo draws behind the sparse certificate's capacity check.
_MC_SAMPLES = 2000


# ------------------------------------------------------------- reports ----


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    slack: float


@dataclass(frozen=True)
class CertificateReport:
    family: str
    checks: tuple


def _check(name: str, measured: float, bound: float, kind: str) -> CheckResult:
    """kind: 'le' measured <= bound, 'ge' measured >= bound, 'eq0' |measured| <= bound."""
    if kind == "le":
        slack = bound - measured
    elif kind == "ge":
        slack = measured - bound
    elif kind == "eq0":
        slack = bound - abs(measured)
    else:
        raise UsageError(f"unknown check kind {kind}")
    # A Python bool even for a numpy slack: reports print a numpy bool as
    # "False" or "True", not "false" or "true".
    return CheckResult(name=name, passed=bool(slack >= 0.0), measured=measured, bound=bound,
                       slack=slack)


# ------------------------------------------------------- banded families ----


def _check_banded(r: int, N: int, d: int, tau: float) -> None:
    """The refusals every banded family shares, in the order they are made."""
    if r <= 1:
        raise UsageError(f"family needs r > 1, got r={r}")
    if N < 1:
        raise UsageError(f"family needs N >= 1, got N={N}")
    if d < 1:
        raise UsageError(f"family needs d >= 1, got d={d}")
    tau_cap = 4.0 ** (-(d + 1))
    if not (0.0 < tau < tau_cap):
        raise UsageError(f"tau must lie in (0, 4^-(d+1)) = (0, {tau_cap:g}), got {tau}")


# Default tau of the diagonal family f1, kept apart from the linked families'.
DIAGONAL_TAU = 0.003


def diagonal_separation(r: int, N: int, tau: float) -> float:
    """Separation delta = sqrt(tau log r / N) < 1/4 of the diagonal family f1.

    The family's r+1 members are I and, for each ell, I less delta at
    (ell, ell), so delta is each perturbed member's distance from I; its
    lower bound needs nothing else.  Needs r > 1, N >= 1, tau in (0, 1/16)
    and N > log r.
    """
    _check_banded(r, N, 1, tau)
    if not N > math.log(r):
        raise UsageError(f"diagonal family needs N > log r: N={N}, log r={math.log(r):.3f}")
    return math.sqrt(tau * math.log(r) / N)


@dataclass(frozen=True)
class BandedFamilySpec:
    """Parameters of the linked banded lower-bound families.

    kind 'f2' links active cells forward by 2 to (2K-1) cells at amplitude
    tau*h_N (needs r > m_star^d); 'f3' links the first half of the cells
    forward at amplitude tau/sqrt(N r) (needs r < m_star^d).  Each active
    cell carries one theta bit; there are ``half`` of them per axis.
    """

    kind: str
    r: int
    N: int
    nu: NuSequence
    d: int = 1
    tau: float = 0.003
    m_star: int = field(init=False, default=0)
    K: int = field(init=False, default=0)
    h_N: float = field(init=False, default=0.0)
    gamma_N: int = field(init=False, default=0)
    S: int = field(init=False, default=0)
    half: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.kind not in ("f2", "f3"):
            raise UsageError(f"unknown banded family kind {self.kind!r}")
        _check_banded(self.r, self.N, self.d, self.tau)
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
            half = K
            h_N = float(K) ** (-self.d) * math.sqrt(ms**self.d / self.N)
        else:  # f3
            if self.r >= ms**self.d:
                raise UsageError(
                    f"F3 requires r < m_star^d: r={self.r}, m_star^d={ms**self.d}"
                )
            if S % 2 != 0:
                raise UsageError(f"F3 needs an even cell count per axis, got S={S}")
            half = S // 2
            h_N = 0.0
        object.__setattr__(self, "m_star", ms)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "gamma_N", half**self.d)
        object.__setattr__(self, "h_N", h_N)

    @property
    def amplitude(self) -> float:
        """Off-diagonal entry value of a perturbed cell pair."""
        if self.kind == "f2":
            return self.tau * self.h_N
        return self.tau / math.sqrt(self.N * self.r)

    def active_cells(self) -> list:
        """Perturbation cells in row-major order; one theta bit per cell."""
        return list(itertools.product(range(self.half), repeat=self.d))

    @property
    def last_linked(self) -> int:
        """Last cell index, along each axis, that a link may reach."""
        return 2 * self.half - 1

    def links(self) -> list:
        """(row, [linked columns]) per active cell, in theta-bit order.

        Each axis links forward by 2 up to last_linked, so every column lies
        strictly above its row and no two cells link the same entry.
        """
        dims = (self.S,) * self.d
        out = []
        for cell in self.active_cells():
            targets = itertools.product(*[range(c + 2, self.last_linked + 1) for c in cell])
            out.append((int(np.ravel_multi_index(cell, dims)),
                        [int(np.ravel_multi_index(t, dims)) for t in targets]))
        return out


@dataclass(frozen=True)
class ThetaIndex:
    """Hypercube index of every lower-bound family: one 0/1 bit per perturbation."""

    bits: tuple

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise UsageError("theta bits must be 0/1")


def build_linked_banded(spec: BandedFamilySpec, theta: ThetaIndex) -> np.ndarray:
    """Member of a linked family (f2 or f3): the identity plus spec.amplitude
    on the links of each set theta bit."""
    links = spec.links()
    if len(theta.bits) != len(links):
        raise UsageError(
            f"theta has {len(theta.bits)} bits; family has {len(links)} cells"
        )
    upper = np.zeros((spec.r, spec.r), dtype=np.float64)
    for bit, (row, cols) in zip(theta.bits, links):
        if not bit:
            continue
        if upper[row, cols].any():
            raise NumericError("cell links overlapped; construction invariant broken")
        upper[row, cols] = spec.amplitude
    return np.eye(spec.r) + upper + upper.T


# ----------------------------------------------------- banded certifier ----


def certify_banded_membership(spec: BandedFamilySpec, theta: ThetaIndex) -> CertificateReport:
    """Numeric membership certificate for a linked-family member.

    Checks: unit lifted trace, Gershgorin eigenvalue floor, the 5/4 column
    bound, the effective-dimension window, and the banding tails (exactly
    zero beyond the truncation index, tail-sequence bounded below it).
    """
    Sigma = build_linked_banded(spec, theta)
    r, S, d = spec.r, spec.S, spec.d
    eigs = np.linalg.eigvalsh(Sigma)
    lam_min, norm = float(eigs[0]), float(np.max(np.abs(eigs)))
    checks = []

    # h * matrix trace on any aligned lift; measured is trace-1, as sup k(x,x)=1.
    trace_lift = float(np.trace(Sigma)) / r
    checks.append(_check("lifted_trace", trace_lift - 1.0, 1e-12, "eq0"))
    # Sum with the diagonal zeroed, not row-sum-minus-diagonal: the mass is
    # tiny next to the unit diagonal and would drown in cancellation noise.
    off_abs = np.abs(Sigma)
    np.fill_diagonal(off_abs, 0.0)
    off_row = float(np.max(off_abs.sum(axis=1)))
    budget = spec.amplitude * (2 * spec.K if spec.kind == "f2" else S - 2) ** d
    checks.append(_check("gershgorin_row_mass", off_row,
                         min(budget * (1.0 + 1e-12), 0.25), "le"))
    checks.append(_check("lambda_min", lam_min, 0.75 - 1e-10, "ge"))
    col_norm = float(np.max(np.sum(np.abs(Sigma), axis=0)))
    checks.append(_check("l1_norm", col_norm, 1.25, "le"))
    r_eff = r / norm
    checks.append(_check("r_eff_lower", r_eff, 0.8 * r, "ge"))
    checks.append(_check("r_eff_upper", r_eff, r * (1.0 + 1e-10), "le"))

    # Banding tails of the lifted kernel, exact at cell level.  The row
    # integral beyond radius m * r_eff^(-1/d) is summed over whole cells
    # whose farthest point crosses the radius (an upper bound on the sup),
    # and the worst of every row is taken.
    op_norm = norm / r
    mass = np.abs(Sigma) * (1.0 / r)
    coords = np.indices((S,) * d).reshape(d, r)
    far = (np.abs(coords[:, None, :] - coords[:, :, None]) + 1) / S
    supdist = np.sqrt(np.sum(far * far, axis=0))  # largest point distance, rows x cells
    for m in range(1, spec.m_star + 3):
        radius = m * r_eff ** (-1.0 / d)
        # cumsum adds left to right, as the definition does; np.sum's pairwise
        # order would move the last digit.
        worst = float(np.cumsum(mass * (supdist >= radius), axis=1)[:, -1].max())
        if m > spec.m_star - 1:
            # The support ends before this radius.
            checks.append(_check(f"tail_zero_m{m}", worst, 0.0, "eq0"))
        else:
            bound = _TAIL_CONST * spec.nu.nu(m) * op_norm
            checks.append(_check(f"tail_bound_m{m}", worst, bound, "le"))
    return CertificateReport(family=spec.kind, checks=tuple(checks))


# ------------------------------------------------------- sparse family ----

# The sparse family's constants M and beta, which bound its admissible
# nu_const (M > 0, beta > 1).
_M_CONST = 2.0
_BETA = 2.0


@dataclass(frozen=True)
class SparseFamilySpec:
    """Sparse thresholding lower-bound family over r+1 equal cells.

    The declared capacity gamma2 fixes the partition size r; eps and the
    row sparsity ell follow from the declared sparsity budget gamma1_q at
    exponent q.  nu_const must be small against the constants (M, beta).
    """

    q: float
    gamma1_q: float
    gamma2: float
    nu_const: float
    N: int
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
        nu_cap = (1.0 / (3.0 * _M_CONST)) ** (1.0 / (1.0 - self.q))
        if not (0.0 < self.nu_const < nu_cap):
            raise UsageError(
                f"nu must lie in (0, (3M)^(-1/(1-q))) = (0, {nu_cap:.6g}), "
                f"got {self.nu_const}"
            )
        var_cap = (_BETA - 1.0) / (54.0 * _BETA)
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
class SparseThetaIndex(ThetaIndex):
    """Sparse hypercube index: a bit per potential active row, plus row supports.

    rows[m] lists the ell support columns of potential active row m; all
    supports live in the last r_star coordinates of the r-block.
    """

    rows: tuple


def _under_column_cap(spec: SparseFamilySpec, supports) -> bool:
    """Whether no column appears in more than 2*ell of the row supports."""
    cols = np.fromiter((c for support in supports for c in support), dtype=np.int64)
    return int(np.bincount(cols, minlength=spec.r).max(initial=0)) <= 2 * spec.ell


def _validate_sparse_theta(spec: SparseFamilySpec, theta: SparseThetaIndex) -> None:
    if len(theta.bits) != spec.r_star or len(theta.rows) != spec.r_star:
        raise UsageError(
            f"theta must carry {spec.r_star} bits and row supports, got "
            f"{len(theta.bits)} and {len(theta.rows)}"
        )
    lo = spec.r - spec.r_star
    supports = [sorted(set(int(c) for c in support)) for support in theta.rows]
    for cols in supports:
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
    if not _under_column_cap(spec, supports):
        raise UsageError(
            f"assembled supports violate the column cap 2*ell={2 * spec.ell}"
        )


def build_sparse_theta(spec: SparseFamilySpec, theta: SparseThetaIndex) -> np.ndarray:
    """Assemble the (r+1) x (r+1) block member Sigma(theta)."""
    _validate_sparse_theta(spec, theta)
    r = spec.r
    P = np.zeros((r, r), dtype=np.float64)
    for m, (bit, support) in enumerate(zip(theta.bits, theta.rows)):
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


def certify_sparse_membership(
    spec: SparseFamilySpec,
    theta: SparseThetaIndex,
    *,
    seed: int = 0,
) -> CertificateReport:
    """Numeric membership certificate for a sparse-family member.

    Checks the sparsity budget, the Monte Carlo capacity bound over
    _MC_SAMPLES draws with a one-sided 3-sigma allowance, the support-count
    product bound, and unit operator norm.
    """
    Sigma = build_sparse_theta(spec, theta)
    n = Sigma.shape[0]
    eigs = np.linalg.eigvalsh(Sigma)
    norm = float(np.max(np.abs(eigs)))
    checks = [
        _check("lambda_min", float(eigs[0]), 0.0, "ge"),
        _check("op_norm_unit", norm - 1.0, 1e-10, "eq0"),
    ]
    # Gamma1(q) of the lifted kernel, exact at cell level.
    abs_s = np.abs(Sigma)
    k_inf = float(np.max(abs_s))
    g1 = float(np.max(np.sum(abs_s**spec.q, axis=1))) * k_inf ** (1.0 - spec.q) / norm
    checks.append(_check("gamma1_budget", g1, spec.gamma1_q, "le"))
    cap_bound = math.sqrt(2.0 * math.log(n))
    checks.append(_check("cap_vs_gamma2", cap_bound, spec.gamma2 * (1 + 1e-12), "le"))
    # The largest variance is Sigma[0, 0] = 1, so gamma2's scale is exactly 1.
    est, se = gamma2(cholesky_psd(CovMatrix(Sigma)), _MC_SAMPLES, seed)
    checks.append(_check("capacity_mc", est, cap_bound + 3.0 * se, "le"))
    # Its q=0 variant counts the support, with the 0^0 = 0 convention.
    g0 = float(np.max(np.sum(Sigma != 0.0, axis=1))) * k_inf / norm
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
    """Uniform bits plus rejection-sampled supports meeting the column cap."""
    gen = _substream(seed, index)
    bits = tuple(int(b) for b in gen.integers(0, 2, size=spec.r_star))
    lo = spec.r - spec.r_star
    for _ in range(1000):
        rows = tuple(
            tuple(sorted(int(c) for c in
                         gen.choice(np.arange(lo, spec.r), size=spec.ell, replace=False)))
            for _ in range(spec.r_star)
        )
        if _under_column_cap(spec, rows):
            return SparseThetaIndex(bits=bits, rows=rows)
    raise NumericError("could not sample supports under the column cap in 1000 tries")


def flip_bit(theta: ThetaIndex, position: int) -> ThetaIndex:
    """Hamming-1 neighbor: the same index with one bit flipped."""
    if not isinstance(theta, ThetaIndex):
        raise UsageError(f"unknown theta type {type(theta).__name__}")
    bits = list(theta.bits)
    if not 0 <= position < len(bits):
        raise UsageError(f"bit position {position} outside 0..{len(bits) - 1}")
    bits[position] = 1 - bits[position]
    return dataclasses.replace(theta, bits=tuple(bits))


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


def _banded_pair_data(spec: BandedFamilySpec, a: ThetaIndex, b: ThetaIndex):
    Sa, Sb = build_linked_banded(spec, a), build_linked_banded(spec, b)
    h_bits = sum(x != y for x, y in zip(a.bits, b.bits))
    cells = spec.active_cells()
    dims = (spec.S,) * spec.d
    # Read each bit back from the matrix through the cell's own forward
    # links only; whole-row comparison would double-count symmetric entries
    # landing on active cells that serve as other cells' targets.
    h_matrix = sum(
        1 for i, targets in spec.links()
        if targets and not np.array_equal(Sa[i, targets], Sb[i, targets])
    )
    # Witness: indicator of the target half-block the links point into.
    v = np.zeros(spec.r)
    for target in itertools.product(range(spec.half, spec.last_linked + 1), repeat=spec.d):
        v[int(np.ravel_multi_index(target, dims))] = 1.0
    # Exact per-cell witness mass: the per-axis link range clipped to the
    # target block has min(half, last_linked-c_i-1) cells.
    pred2 = 0.0
    for bit_a, bit_b, cell in zip(a.bits, b.bits, cells):
        if bit_a == bit_b:
            continue
        count = 1
        for c_i in cell:
            lo = max(c_i + 2, spec.half)
            count *= max(0, spec.last_linked - lo + 1)
        pred2 += (spec.amplitude * count) ** 2
    return Sa, Sb, h_bits, h_matrix, v, math.sqrt(pred2)


def _sparse_pair_data(spec: SparseFamilySpec, a: SparseThetaIndex, b: SparseThetaIndex):
    if a.rows != b.rows:
        raise UsageError("sparse pairs must share the same row supports")
    Sa = build_sparse_theta(spec, a)
    Sb = build_sparse_theta(spec, b)
    h_bits = sum(x != y for x, y in zip(a.bits, b.bits))
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
    pair_data = _banded_pair_data if banded else _sparse_pair_data
    for a, b in pairs:
        Sa, Sb, h_bits, h_matrix, v, pred = pair_data(spec, a, b)
        if h_bits == 0:
            raise UsageError("pairs must differ in at least one bit")
        hamming_ok = hamming_ok and (h_bits == h_matrix)
        delta = Sa - Sb
        # Rows and columns off the flip's support add only zero eigenvalues.
        s = np.flatnonzero(delta.any(axis=1))
        dnorm = float(np.max(np.abs(np.linalg.eigvalsh(delta[np.ix_(s, s)])))) if s.size else 0.0
        frob2 = float(np.sum(delta * delta))
        alpha = dnorm / h_bits
        alpha_min = min(alpha_min, alpha)
        wnorm = float(np.linalg.norm(delta @ v))
        vnorm = float(np.linalg.norm(v))
        witness_eq_worst = max(witness_eq_worst, abs(wnorm - pred))
        witness_ok_slack = min(witness_ok_slack, alpha - wnorm / (vnorm * h_bits))
        if not banded:
            alpha_sparse_slack = min(alpha_sparse_slack, alpha - spec.ell * spec.eps / spec.r)
        if h_bits == 1:
            kl = max(kl_gaussian_both(Sa, Sb))
            worst_kl = max(worst_kl, kl)
            worst_frob2 = max(worst_frob2, frob2)
            if frob2 > 0:
                kl_ratio_worst = max(kl_ratio_worst, kl / frob2)
            if banded and spec.kind == "f2":
                fb = 2.0 * spec.tau**2 * spec.h_N**2 * (2 * spec.K) ** spec.d
                frob_slack_min = min(frob_slack_min, fb - frob2)
    checks.append(_check("hamming_two_ways", 0.0 if hamming_ok else 1.0, 0.0, "eq0"))
    # The measured |delta v| matches the combinatorial count.
    checks.append(_check("witness_exact", witness_eq_worst, 1e-10, "eq0"))
    # Both families' witness vectors are nonzero.
    checks.append(_check("witness_lower_bound", witness_ok_slack, -1e-12, "ge"))
    if not banded:
        checks.append(_check("alpha_vs_ell_eps_over_r", alpha_sparse_slack, -1e-12, "ge"))
    if kl_ratio_worst > 0.0:
        checks.append(_check("kl_vs_frobenius", kl_ratio_worst, 16.0 / 9.0, "le"))
    if frob_slack_min is not math.inf:
        checks.append(_check("frobenius_budget", -frob_slack_min, 0.0, "le"))
    return AssouadReport(
        alpha_min=alpha_min, worst_kl=worst_kl, worst_frob2=worst_frob2,
        checks=tuple(checks),
    )
