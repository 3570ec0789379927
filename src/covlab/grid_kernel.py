"""Grids on [0,1]^d, covariance kernels, tapering weights, and lifts.

The continuous object is a covariance kernel k on [0,1]^d x [0,1]^d.  All
estimation happens on the endpoint-aligned uniform grid x_i = i/(L-1) of
n = L^d points; the discretized operator is the matrix C[i, j] = k(x_i, x_j)
times the quadrature weight h = L^-d = 1/n, which converts matrix quantities
to operator quantities (operator norm = h * matrix norm, operator trace =
h * trace).  The weight depends on the matrix size alone; ``CovMatrix.h``
computes it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import UsageError

__all__ = [
    "Grid",
    "SquaredExponential",
    "Matern",
    "Periodic",
    "PiecewiseConstant",
    "KernelSpec",
    "CovMatrix",
    "build_grid",
    "eval_kernel",
    "discretize",
    "fisher_yates_permutation",
    "shuffle_cov",
    "taper_weight",
    "taper_weight_sumform",
    "taper_weight_matrix",
    "lift_matrix_norm_check",
]


# ---------------------------------------------------------------- grid ----


@dataclass(frozen=True)
class Grid:
    """Uniform endpoint-aligned grid on [0,1]^d.

    Point number i carries coordinates (i_1/(L-1), ..., i_d/(L-1)) where the
    multi-index (i_1, ..., i_d) runs in row-major order (last axis fastest).
    """

    d: int
    L: int
    points: np.ndarray  # (n, d) read-only float64

    @property
    def n(self) -> int:
        return self.points.shape[0]


def build_grid(d: int, L: int) -> Grid:
    """Build the uniform grid with L points per axis in d dimensions."""
    if d < 1:
        raise UsageError(f"grid dimension must be >= 1, got d={d}")
    if L < 2:
        raise UsageError(f"grid needs L >= 2 points per axis, got L={L}")
    n = int(L) ** int(d)  # exact Python integer, no silent overflow
    if n >= 2**63:
        raise UsageError(f"grid size L^d = {n} does not fit the int64 index type")
    # Every use of a grid builds n x n float64 matrices; refuse one that
    # cannot fit before numpy tries to allocate it.
    need, ram = 8 * n * n, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > ram:
        raise UsageError(
            f"grid of {n} points needs {need / 2**30:.1f} GiB per n x n matrix, "
            f"more than the {ram / 2**30:.1f} GiB of physical memory"
        )
    axis = np.arange(L, dtype=np.float64) / (L - 1)
    if d == 1:
        pts = axis[:, None].copy()
    else:
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    pts.setflags(write=False)
    return Grid(d=d, L=L, points=pts)


# ------------------------------------------------------------- kernels ----


@dataclass(frozen=True)
class SquaredExponential:
    """k(x,y) = exp(-|x-y|^2 / (2 lengthscale^2))."""

    lengthscale: float

    def __post_init__(self) -> None:
        if not self.lengthscale > 0:
            raise UsageError(f"lengthscale must be > 0, got {self.lengthscale}")

    def of_sqdist(self, d2):
        """Kernel value at squared distance d2 = |x-y|^2 (scalar or array)."""
        lam = self.lengthscale
        return np.exp(-d2 / (2.0 * lam * lam))


_MATERN_SMOOTHNESS = (0.5, 1.5, 2.5)


@dataclass(frozen=True)
class Matern:
    """Matern kernel at half-integer smoothness (closed forms, no Bessel)."""

    lengthscale: float
    smoothness: float = 1.5

    def __post_init__(self) -> None:
        if not self.lengthscale > 0:
            raise UsageError(f"lengthscale must be > 0, got {self.lengthscale}")
        if self.smoothness not in _MATERN_SMOOTHNESS:
            raise UsageError(
                f"matern smoothness must be one of {_MATERN_SMOOTHNESS}, "
                f"got {self.smoothness}"
            )

    def of_sqdist(self, d2):
        """Kernel value at squared distance d2 = |x-y|^2 (scalar or array)."""
        s = np.sqrt(2.0 * self.smoothness) * (np.sqrt(d2) / self.lengthscale)
        if self.smoothness == 0.5:
            return np.exp(-s)
        if self.smoothness == 1.5:
            return (1.0 + s) * np.exp(-s)
        return (1.0 + s + s * s / 3.0) * np.exp(-s)


@dataclass(frozen=True)
class Periodic:
    """k(x,y) = exp(-2 sin^2(pi |x-y| / period) / lengthscale^2)."""

    lengthscale: float
    period: float

    def __post_init__(self) -> None:
        if not self.lengthscale > 0:
            raise UsageError(f"lengthscale must be > 0, got {self.lengthscale}")
        if not self.period > 0:
            raise UsageError(f"period must be > 0, got {self.period}")

    def of_sqdist(self, d2):
        """Kernel value at squared distance d2 = |x-y|^2 (scalar or array)."""
        s = np.sin(np.pi * np.sqrt(d2) / self.period)
        return np.exp(-2.0 * s * s / (self.lengthscale**2))


@dataclass(frozen=True, eq=False)
class PiecewiseConstant:
    """Lift of an M x M matrix to a kernel constant on M equal cells.

    The cells are realized as M equal blocks of consecutive grid indices
    (for d=1 these are exactly the intervals [c/M, (c+1)/M)); the grid must
    have L^d divisible by M so every cell holds the same number of points.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = CovMatrix(np.asarray(self.values, float)).entries  # non-empty, square, finite, symmetric
        eigs = np.linalg.eigvalsh(v)
        scale = float(np.max(np.abs(eigs)))
        if eigs[0] < -1e-10 * scale:
            raise UsageError(
                f"lift matrix is not PSD: min eigenvalue {eigs[0]:.3e} "
                f"below -1e-10 * norm {scale:.3e}"
            )
        object.__setattr__(self, "values", v)

    @property
    def cells(self) -> int:
        return self.values.shape[0]


KernelSpec = Union[SquaredExponential, Matern, Periodic, PiecewiseConstant]


# ------------------------------------------------------ kernel evaluation ----


def _point_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    px, py = (np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in (x, y))
    if px.ndim != 1 or py.ndim != 1:
        raise UsageError("points must be flat coordinate vectors")
    if px.shape != py.shape:
        raise UsageError(f"point shapes differ: {px.shape} vs {py.shape}")
    return px, py


def _pwc_cell_of_point(x: float, M: int) -> int:
    # Cell c covers [c/M, (c+1)/M); the right endpoint 1.0 joins the last cell.
    return min(int(np.floor(x * M)), M - 1)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for points x, y in [0,1]^d, to the bit as ``discretize`` does."""
    px, py = _point_pair(x, y)
    if isinstance(spec, PiecewiseConstant):
        if px.size != 1:
            raise UsageError("piecewise-constant lift evaluates points only for d=1")
        M = spec.cells
        return float(
            spec.values[_pwc_cell_of_point(px[0], M), _pwc_cell_of_point(py[0], M)]
        )
    d2 = _pairwise_sqdist(np.stack([px, py]))
    return float(spec.of_sqdist(d2)[0, 1])


# -------------------------------------------------------- discretization ----


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Non-empty, finite, exactly symmetric n x n matrix of kernel values at
    the n grid points; its operator carries the quadrature weight ``h``."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise UsageError(f"covariance matrix must be square, got {e.shape}")
        if e.shape[0] == 0:
            raise UsageError("covariance matrix must have at least one grid point")
        if not np.all(np.isfinite(e)):
            raise UsageError("covariance matrix has non-finite entries")
        if not np.array_equal(e, e.T):
            raise UsageError("covariance matrix must be exactly symmetric")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def h(self) -> float:
        """Quadrature weight 1/n = L^-d of the grid the entries live on."""
        return 1.0 / self.n

    @classmethod
    def _derived(cls, entries: np.ndarray) -> "CovMatrix":
        """A CovMatrix without the O(n^2) checks: only for entries derived from
        checked ones by an operation that keeps them finite and exactly symmetric."""
        C = object.__new__(cls)
        C.__dict__.update(entries=entries)
        return C


def fisher_yates_permutation(n: int, seed: int) -> np.ndarray:
    """Fisher-Yates shuffle of range(n) from a counter-based generator.

    The downward swap order is part of the reproducibility contract: the
    same (n, seed) gives the same permutation on every platform.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def shuffle_cov(C: CovMatrix, seed: int) -> tuple[CovMatrix, np.ndarray]:
    """(C[perm, :][:, perm], perm) for the seeded Fisher-Yates permutation perm."""
    perm = fisher_yates_permutation(C.n, seed)
    return CovMatrix._derived(C.entries.take(perm, 0).take(perm, 1)), perm


def _pairwise_sqdist(points: np.ndarray) -> np.ndarray:
    # Accumulate per axis: keeps peak memory at one (n, n) block and makes the
    # result bitwise symmetric (each term is a product of exact negations).
    n = points.shape[0]
    d2 = np.zeros((n, n), dtype=np.float64)
    for k in range(points.shape[1]):
        diff = points[:, k][:, None] - points[:, k][None, :]
        d2 += diff * diff
    return d2


def _pwc_cells_for_grid(M: int, n: int) -> np.ndarray:
    if n % M != 0:
        raise UsageError(
            f"piecewise-constant lift needs the cell count to divide the grid: "
            f"L^d = {n} is not a multiple of M = {M}"
        )
    return np.repeat(np.arange(M, dtype=np.int64), n // M)


def discretize(spec: KernelSpec, grid: Grid) -> CovMatrix:
    """Evaluate the kernel on all grid point pairs.

    The output is exactly symmetric: every construction path below computes
    entry (i, j) and entry (j, i) from bitwise-identical expressions.
    """
    if isinstance(spec, PiecewiseConstant):
        cells = _pwc_cells_for_grid(spec.cells, grid.n)
        return CovMatrix(entries=spec.values[np.ix_(cells, cells)])
    return CovMatrix(entries=spec.of_sqdist(_pairwise_sqdist(grid.points)))


# ------------------------------------------------------------- tapering ----


def _check_taper_radius(kappa: float) -> None:
    if not 0 < kappa < np.inf:  # an infinite radius would give nan weights
        raise UsageError(f"taper radius must be finite and > 0, got {kappa}")


def taper_weight(kappa: float, x, y) -> float:
    """Flat-top taper: 1 within kappa, linear ramp to 0 at 2*kappa, per axis."""
    _check_taper_radius(kappa)
    px, py = _point_pair(x, y)
    t = np.abs(px - py)
    w = np.clip((2.0 * kappa - t) / kappa, 0.0, 1.0)
    return float(np.prod(w))


def taper_weight_sumform(kappa: float, x, y) -> float:
    """Signed-sum form of the taper: kappa^-d sum over sigma in {1,2}^d."""
    _check_taper_radius(kappa)
    px, py = _point_pair(x, y)
    t = np.abs(px - py)
    d = t.size
    total = 0.0
    for sigma in itertools.product((1, 2), repeat=d):
        sign = -1.0 if sum(sigma) % 2 else 1.0
        term = 1.0
        for s_i, t_i in zip(sigma, t):
            term *= max(s_i * kappa - t_i, 0.0)
        total += sign * term
    return total / kappa**d


def taper_weight_matrix(kappa: float, grid: Grid) -> np.ndarray:
    """All-pairs taper weights on a grid, one (n, n) block per axis."""
    _check_taper_radius(kappa)
    # Built in place: the first axis's ramp becomes the result, and each
    # later axis reuses one scratch array.
    w = t = None
    for k in range(grid.d):
        x = grid.points[:, k]
        t = np.subtract(x[:, None], x[None, :], out=t)
        np.abs(t, out=t)
        np.subtract(2.0 * kappa, t, out=t)
        t /= kappa
        np.clip(t, 0.0, 1.0, out=t)
        if w is None:
            w, t = t, None
        else:
            w *= t
    return w


# ------------------------------------------------------------ lift check ----


def lift_matrix_norm_check(Sigma: np.ndarray, grid: Grid) -> tuple[float, float, float]:
    """Check the lift identity: operator norm of the lifted kernel = |Sigma|/M.

    Returns (lifted operator norm, |Sigma|/M, relative difference).  Exact on
    aligned grids because cell indicators are exactly representable there.
    """
    spec = PiecewiseConstant(values=np.asarray(Sigma, dtype=np.float64))
    M = spec.cells
    lifted = discretize(spec, grid)
    lift_norm = lifted.h * float(np.max(np.abs(np.linalg.eigvalsh(lifted.entries))))
    block_norm = float(np.max(np.abs(np.linalg.eigvalsh(spec.values)))) / M
    denom = max(abs(block_norm), np.finfo(np.float64).tiny)
    return lift_norm, block_norm, abs(lift_norm - block_norm) / denom
