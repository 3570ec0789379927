"""Cholesky factorization with a jitter ladder and seeded Gaussian paths.

Sampling follows a strict substream contract: path n is generated from a
counter-based generator keyed by (seed, n), so a path's bytes depend only on
the seed and its own index.  Drawing N+1 paths extends a draw of N, and any
parallel schedule produces identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .grid_kernel import CovMatrix

__all__ = ["CholFactor", "SampleSet", "cholesky_psd", "draw_paths", "sample_cov"]

# Largest diagonal shift cholesky_psd tries, relative to tr(C)/n.
_JITTER_BUDGET = 1e-6


@dataclass(frozen=True, eq=False)
class CholFactor:
    """Lower-triangular factor of a (possibly jittered) covariance matrix."""

    lower: np.ndarray
    jitter_used: float
    grid_h: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N Gaussian path evaluations on the grid."""

    paths: np.ndarray  # (N, n)
    grid_h: float

    @property
    def N(self) -> int:
        return self.paths.shape[0]


def _most_negative_pivot(matrix: np.ndarray) -> float:
    # Only reached on the failure path; an LDL^T factorization exposes the
    # pivots that plain Cholesky cannot get past.
    import scipy.linalg

    _, diag, _ = scipy.linalg.ldl(matrix, lower=True)
    return float(np.min(np.linalg.eigvalsh(diag)))


def cholesky_psd(C: CovMatrix) -> CholFactor:
    """Factor C, escalating a relative diagonal shift when it is not PD.

    The ladder starts at 1e-12 * tr(C)/n and multiplies by 10 until either
    the factorization succeeds or the shift would exceed
    _JITTER_BUDGET * tr(C)/n.
    """
    A = C.entries
    n = C.n
    scale = float(np.trace(A)) / n
    jitter = 0.0
    while True:
        try:
            lower = np.linalg.cholesky(A if jitter == 0.0 else A + jitter * np.eye(n))
            return CholFactor(lower=lower, jitter_used=jitter, grid_h=C.grid_h)
        except np.linalg.LinAlgError:
            next_jitter = 1e-12 * scale if jitter == 0.0 else jitter * 10.0
            if next_jitter > _JITTER_BUDGET * scale or next_jitter == 0.0:
                pivot = _most_negative_pivot(A + jitter * np.eye(n))
                raise NumericError(
                    f"matrix is not PSD within jitter budget {_JITTER_BUDGET:g} "
                    f"(relative scale tr/n = {scale:.6g}); most negative pivot "
                    f"{pivot:.6e}"
                ) from None
            jitter = next_jitter


def draw_paths(factor: CholFactor, N: int, seed: int) -> SampleSet:
    """Draw N paths u_n = lower @ z_n with z_n from substream (seed, n)."""
    if N < 1:
        raise UsageError(f"need at least one path, got N={N}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    n = factor.n
    paths = np.empty((N, n), dtype=np.float64)
    for i in range(N):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i))))
        paths[i] = factor.lower @ gen.standard_normal(n)
    paths.setflags(write=False)
    return SampleSet(paths=paths, grid_h=factor.grid_h)


def sample_cov(S: SampleSet) -> CovMatrix:
    """Uncentered sample covariance (1/N) sum_n u_n u_n^T.

    The model is centered, so no mean is subtracted.  numpy computes the
    Gram product P^T P of one array with its own transpose on BLAS's syrk
    path, which fills one triangle and mirrors it, so the result is exactly
    symmetric without a pass of its own; CovMatrix would refuse it if not.
    """
    G = S.paths.T @ S.paths
    G /= S.N
    return CovMatrix(entries=G, grid_h=S.grid_h)
