"""Spectral norms, effective dimension, sparsity/capacity functionals,
banding tail sequences, the truncation pair, relative errors, and the
Gaussian KL divergence.

All operator-level quantities are grid-weighted matrix quantities: with
h = L^-d, the operator norm is h times the matrix spectral norm and the
operator trace is h times the matrix trace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import NumericError, UsageError
from .grid_kernel import (
    CovMatrix,
    Grid,
    KernelSpec,
    Matern,
    SquaredExponential,
)
from .sampling import CholFactor, draw_paths

__all__ = [
    "spectral_norm",
    "OperatorQuantities",
    "operator_quantities",
    "gamma1",
    "gamma2",
    "NuSequence",
    "m_star",
    "eps_star",
    "rel_error",
    "kl_gaussian",
    "DiagnosticReport",
]

_DENSE_CUTOFF = 256  # below this, a direct eigensolve beats iteration
_LANCZOS_SEED = 0x5EED_0C0B


# -------------------------------------------------------- spectral norm ----


def spectral_norm(
    A: np.ndarray,
    tol: float = 1e-9,
    *,
    method: str = "auto",
) -> float:
    """Matrix spectral norm (largest |eigenvalue|) of a symmetric matrix.

    The iterative path is ARPACK's implicitly restarted Lanczos (``eigsh``,
    k=1, largest magnitude) at relative residual ``tol``, started from the
    ones vector plus a small perturbation drawn from a counter-based
    generator keyed by (_LANCZOS_SEED, n), so repeated calls are
    bit-reproducible.  The ones direction starts the iteration close to the
    top eigenvector of a smooth covariance; the perturbation keeps it from
    missing a top eigenvector orthogonal to ones.  It solves densely only if
    ARPACK does not converge within max(10, n/160) restarts, so the
    tolerance contract always holds.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise UsageError(f"spectral_norm needs a square matrix, got {A.shape}")
    if not (1e-14 < tol < 1e-2):
        raise UsageError(f"tolerance must lie in (1e-14, 1e-2), got {tol}")
    if method not in ("auto", "lanczos", "dense"):
        raise UsageError(f"unknown method {method!r}")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if scale == 0.0:
        return 0.0
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-12 * scale:
        raise UsageError(
            f"matrix is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    n = A.shape[0]
    if n == 1 or method == "dense" or (method == "auto" and n <= _DENSE_CUTOFF):
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    # The iteration assumes exact symmetry; fold in any last-bit asymmetry.
    if asym != 0.0:
        A = (A + A.T) / 2.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((_LANCZOS_SEED, n))))
    v0 = np.ones(n) + 0.01 * rng.standard_normal(n)
    # A tightly clustered top of the spectrum can keep ARPACK restarting for
    # thousands of matvecs, where a dense solve costs a few hundred at
    # n=1250.  A restart costs 10 to 19 matvecs at scipy's default ncv=20,
    # so the cap allows about max(100, n/16) matvecs before falling back.
    try:
        top = eigsh(
            A, k=1, which="LM", tol=tol, v0=v0, maxiter=max(10, n // 160),
            return_eigenvectors=False,
        )
    except ArpackNoConvergence:
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    return float(abs(top[0]))


# ------------------------------------------------- operator quantities ----


@dataclass(frozen=True)
class OperatorQuantities:
    trace_op: float
    op_norm: float
    r_eff: float


def operator_quantities(C: CovMatrix, *, tol: float = 1e-9) -> OperatorQuantities:
    """Operator trace, operator norm, and effective dimension Tr/norm."""
    trace_m = float(np.trace(C.entries))
    norm_m = spectral_norm(C.entries, tol)
    if norm_m == 0.0:
        raise UsageError("zero operator has no effective dimension")
    return OperatorQuantities(
        trace_op=C.grid_h * trace_m,
        op_norm=C.grid_h * norm_m,
        r_eff=trace_m / norm_m,  # the grid weight cancels exactly
    )


def gamma1(
    C: CovMatrix, q: float, *, tol: float = 1e-9, op_norm: Optional[float] = None
) -> float:
    """Row L^q-sparsity functional |k|_q^q |k|_inf^(1-q) / |C|.

    |k|_q^q is the largest grid-weighted row sum of |entries|^q (a Riemann
    sum of the defining integral); scale-invariant in C.  A caller that
    already holds the operator norm |C| (``operator_quantities(C).op_norm``)
    passes it as ``op_norm`` to skip recomputing it.
    """
    if not (0.0 < q <= 1.0):
        raise UsageError(f"q must lie in (0, 1], got {q}")
    abs_e = np.abs(C.entries)
    k_inf = float(np.max(abs_e))
    if op_norm is None:
        op_norm = C.grid_h * spectral_norm(C.entries, tol)
    if op_norm == 0.0:
        raise UsageError("zero operator has no sparsity functional")
    row_q = float(np.max(np.sum(abs_e**q, axis=1))) * C.grid_h
    return row_q * k_inf ** (1.0 - q) / op_norm


def gamma2(
    factor: CholFactor, grid: Grid, M_mc: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo capacity estimate E[max_i u(x_i)] / sqrt(max_i k(x_i,x_i)).

    Returns the estimate and the standard error of the Monte Carlo mean
    (both on the normalized scale).
    """
    if M_mc < 2:
        raise UsageError(f"capacity estimate needs M_mc >= 2 draws, got {M_mc}")
    if factor.n != grid.n:
        raise UsageError(
            f"factor size {factor.n} does not match grid size {grid.n}"
        )
    diag = np.sum(factor.lower * factor.lower, axis=1)  # diag of L L^T
    k_inf = float(np.max(diag))
    if k_inf <= 0.0:
        raise UsageError("factored matrix has zero diagonal; capacity undefined")
    draws = draw_paths(factor, M_mc, seed)
    maxima = draws.paths.max(axis=1)
    root = math.sqrt(k_inf)
    est = float(np.mean(maxima)) / root
    se = float(np.std(maxima, ddof=1)) / math.sqrt(M_mc) / root
    return est, se


# -------------------------------------------------------- tail sequence ----


def _tail_integral(unit: KernelSpec, d: int, m: float) -> float:
    """Integral of r^(d-1) K(r) over [m, infinity) for the kernel K at unit lengthscale."""
    f = lambda r: r ** (d - 1) * unit.of_sqdist(r * r)
    T = max(2.0 * m, m + 10.0)
    total, _ = scipy.integrate.quad(f, m, T, epsabs=1e-12, epsrel=1e-12, limit=200)
    for _ in range(60):
        piece, _ = scipy.integrate.quad(
            f, T, 2.0 * T, epsabs=1e-12, epsrel=1e-12, limit=200
        )
        if not math.isfinite(piece):
            raise NumericError("tail quadrature diverged; profile not integrable")
        if piece <= 1e-14 * max(total + piece, 1e-300):
            return total + piece
        total += piece
        T *= 2.0
    raise NumericError("tail quadrature did not stabilize; profile decays too slowly")


@dataclass
class NuSequence:
    """Banding tail sequence, normalized so nu_1 = 1 for built-in sources.

    Explicit tables are taken as given (validated positive, non-increasing,
    first value <= 1); the truncation-pair sandwich property is only
    guaranteed when nu_1 = 1.
    """

    source: str
    _fn: Optional[Callable[[int], float]] = None
    _table: Optional[tuple] = None
    _memo: dict = field(default_factory=dict)

    @staticmethod
    def se_d1() -> "NuSequence":
        denom = scipy.special.erfc(1.0 / math.sqrt(2.0))
        return NuSequence(
            source="closed_form_se_d1",
            _fn=lambda m: float(scipy.special.erfc(m / math.sqrt(2.0)) / denom),
        )

    @staticmethod
    def exponential() -> "NuSequence":
        return NuSequence(
            source="closed_form_exponential", _fn=lambda m: math.exp(-(m - 1.0))
        )

    @staticmethod
    def numeric(spec: KernelSpec, d: int) -> "NuSequence":
        if d < 1:
            raise UsageError(f"dimension must be >= 1, got {d}")
        # Only SE and Matern decay monotonically in |x-y|.
        if not isinstance(spec, (SquaredExponential, Matern)):
            raise UsageError(
                f"kernel {type(spec).__name__} has no radial profile for "
                "numeric tails; use the 'se' or 'exp' tail sequence"
            )
        unit = dataclasses.replace(spec, lengthscale=1.0)
        denom = _tail_integral(unit, d, 1.0)
        if denom <= 0.0:
            raise NumericError("tail integral at m=1 vanished; cannot normalize")
        return NuSequence(
            source="numeric",
            _fn=lambda m: _tail_integral(unit, d, float(m)) / denom,
        )

    @staticmethod
    def table(values) -> "NuSequence":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise UsageError("tail table must be non-empty")
        if any(v <= 0 for v in vals):
            raise UsageError("tail values must be strictly positive")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise UsageError("tail values must be non-increasing")
        if vals[0] > 1.0:
            raise UsageError(f"tail table must start at <= 1, got {vals[0]}")
        return NuSequence(source="explicit", _table=vals)

    def nu(self, m: int) -> float:
        if m < 1:
            raise UsageError(f"tail index must be >= 1, got m={m}")
        if self._table is not None:
            if m > len(self._table):
                raise UsageError(
                    f"tail table has {len(self._table)} entries; m={m} is beyond it"
                )
            return self._table[m - 1]
        if m not in self._memo:
            self._memo[m] = float(self._fn(m))
        return self._memo[m]


def m_star(nu: NuSequence, N: int, d: int) -> int:
    """Smallest m with nu_m <= sqrt(m^d / N)."""
    if N < 1:
        raise UsageError(f"sample count must be >= 1, got N={N}")
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got d={d}")
    m = 1
    while nu.nu(m) > math.sqrt(m**d / N):
        m += 1
    return m


def eps_star(nu: NuSequence, N: int, d: int) -> float:
    """Bias-variance crossover max_m min(nu_m, sqrt(m^d/N)), in closed form."""
    m = m_star(nu, N, d)
    return max(nu.nu(m), math.sqrt((m - 1) ** d / N))


# ------------------------------------------------------ error and KL ----


def rel_error(Chat: CovMatrix, C: CovMatrix, *, tol: float = 1e-9) -> float:
    """Relative spectral-norm error |Chat - C| / |C| (grid weight cancels)."""
    if Chat.n != C.n or Chat.grid_h != C.grid_h:
        raise UsageError("matrices come from different grids")
    denom = spectral_norm(C.entries, tol)
    if denom == 0.0:
        raise UsageError("reference operator is zero; relative error undefined")
    return spectral_norm(Chat.entries - C.entries, tol) / denom


def kl_gaussian(S1: np.ndarray, S2: np.ndarray) -> float:
    """KL divergence between centered Gaussians N(0, S1) and N(0, S2).

    Computed as (Tr(S2^-1 S1) - n + logdet S2 - logdet S1) / 2 via a
    Cholesky solve on S2.  A singular S1 gives +inf (no density).
    """
    S1 = np.asarray(S1, dtype=np.float64)
    S2 = np.asarray(S2, dtype=np.float64)
    if S1.shape != S2.shape or S1.ndim != 2 or S1.shape[0] != S1.shape[1]:
        raise UsageError(f"need square matrices of equal size, got {S1.shape} vs {S2.shape}")
    for name, S in (("S1", S1), ("S2", S2)):
        scale = float(np.max(np.abs(S)))
        if scale > 0 and float(np.max(np.abs(S - S.T))) > 1e-12 * scale:
            raise UsageError(f"{name} is not symmetric")
    n = S1.shape[0]
    e2 = np.linalg.eigvalsh((S2 + S2.T) / 2.0)
    if e2[0] <= 1e-12 * max(abs(e2[0]), abs(e2[-1])):
        raise UsageError("S2 must be positive definite for the KL formula")
    chol2 = np.linalg.cholesky(S2)
    trace_term = float(np.trace(scipy.linalg.cho_solve((chol2, True), S1)))
    logdet2 = 2.0 * float(np.sum(np.log(np.diag(chol2))))
    e1 = np.linalg.eigvalsh((S1 + S1.T) / 2.0)
    scale1 = max(abs(e1[0]), abs(e1[-1]))
    if e1[0] < -1e-12 * scale1:
        raise UsageError("S1 must be positive semi-definite")
    if e1[0] <= 0.0:
        return math.inf
    logdet1 = float(np.sum(np.log(e1)))
    return max(0.5 * (trace_term - n + logdet2 - logdet1), 0.0)


# ---------------------------------------------------------- reporting ----


@dataclass(frozen=True)
class DiagnosticReport:
    """Flat key=value diagnostic block; optional entries are omitted."""

    trace_op: float
    op_norm: float
    r_eff: float
    gamma1: dict
    gamma2: Optional[float] = None
    gamma2_se: Optional[float] = None
    m_star: Optional[int] = None
    eps_star: Optional[float] = None

    def format(self) -> str:
        lines = [
            f"trace_op={self.trace_op!r}",
            f"op_norm={self.op_norm!r}",
            f"r_eff={self.r_eff!r}",
        ]
        for q in sorted(self.gamma1):
            lines.append(f"gamma1.q{q:g}={self.gamma1[q]!r}")
        if self.gamma2 is not None:
            lines.append(f"gamma2={self.gamma2!r}")
            lines.append(f"gamma2_se={self.gamma2_se!r}")
        if self.m_star is not None:
            lines.append(f"m_star={self.m_star}")
            lines.append(f"eps_star={self.eps_star!r}")
        return "\n".join(lines)
