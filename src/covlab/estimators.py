"""Tapering and thresholding estimators with their selection rules.

Both estimators transform the raw sample covariance entrywise; the bandwidth
kappa comes from the truncation index of the declared tail sequence, and the
threshold level from the empirical supremum of the sample paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .diagnostics import NuSequence, m_star
from .grid_kernel import CovMatrix, Grid, taper_weight_matrix
from .sampling import SampleSet, sample_cov

__all__ = [
    "EstimatorConfig",
    "taper_estimate",
    "threshold_estimate",
    "choose_kappa",
    "adaptive_threshold",
]

_K_INF_MODES = ("known", "plugin_max_diag")


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning constants for the data-driven selection rules.

    c0 scales the threshold level; theory wants c0 <= sqrt(N) at use time,
    which is not enforced here (tiny-N calls are still well defined, they
    just threshold aggressively).  k_inf_mode picks the sup-kernel proxy:
    a known constant or the largest sample variance (default).
    """

    c0: float = 2.0
    k_inf_mode: str = "plugin_max_diag"
    k_inf_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.c0 > 0:
            raise UsageError(f"c0 must be > 0, got {self.c0}")
        if self.k_inf_mode not in _K_INF_MODES:
            raise UsageError(
                f"k_inf_mode must be one of {_K_INF_MODES}, got {self.k_inf_mode!r}"
            )
        if self.k_inf_mode == "known" and self.k_inf_value is None:
            raise UsageError("k_inf_mode 'known' needs k_inf_value")


def taper_estimate(Chat: CovMatrix, kappa: float, grid: Grid) -> CovMatrix:
    """Entrywise product of the estimate with the taper ramp at radius kappa.

    The diagonal is unchanged (the ramp is 1 at zero separation) and entries
    whose largest coordinate gap reaches 2*kappa are exactly zero.
    """
    if not kappa > 0:
        raise UsageError(f"kappa must be > 0, got {kappa}")
    if Chat.entries.shape[0] != grid.n:
        raise UsageError(
            f"matrix size {Chat.entries.shape[0]} does not match grid size {grid.n}"
        )
    weights = taper_weight_matrix(kappa, grid)
    return CovMatrix(entries=Chat.entries * weights, grid_h=Chat.grid_h)


def threshold_estimate(Chat: CovMatrix, rho: float) -> CovMatrix:
    """Hard thresholding: keep entries with |entry| >= rho (ties kept)."""
    if rho < 0:
        raise UsageError(f"threshold level must be >= 0, got {rho}")
    kept = Chat.entries * (np.abs(Chat.entries) >= rho)
    return CovMatrix(entries=kept, grid_h=Chat.grid_h)


def choose_kappa(nu: NuSequence, N: int, d: int, scale: float) -> float:
    """Taper radius: the truncation index times the correlation scale.

    scale is the lengthscale when known, or the plugin effective-dimension
    value r_eff^(-1/d) otherwise.
    """
    if not scale > 0:
        raise UsageError(f"scale must be > 0, got {scale}")
    return m_star(nu, N, d) * scale


def _resolve_k_inf(S: SampleSet, cfg: EstimatorConfig) -> float:
    if cfg.k_inf_mode == "known":
        value = float(cfg.k_inf_value)
    else:  # plugin_max_diag
        value = float(np.max(np.diag(sample_cov(S).entries)))
    if value < 0:
        raise UsageError(f"resolved sup-kernel value is negative: {value}")
    return value


def adaptive_threshold(S: SampleSet, cfg: EstimatorConfig) -> float:
    """Data-driven threshold level from the empirical path suprema.

    rho_hat = c0 * sqrt(k_inf / N) * mean over samples of the signed maximum
    grid value of each path.  The result can be negative for pathological
    draws (every path entirely below zero); callers that feed it to
    threshold_estimate will then see the level rejected.
    """
    k_inf = _resolve_k_inf(S, cfg)
    maxima = S.paths.max(axis=1)
    return cfg.c0 * math.sqrt(k_inf) / math.sqrt(S.N) * float(np.mean(maxima))
