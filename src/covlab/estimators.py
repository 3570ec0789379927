"""Tapering and thresholding estimators with their selection rules.

Both estimators transform the raw sample covariance entrywise; the bandwidth
kappa comes from the truncation index of the declared tail sequence, and the
threshold level from the empirical supremum of the sample paths.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .diagnostics import NuSequence, m_star
from .grid_kernel import CovMatrix, _check_taper_radius, taper_weight_matrix
from .sampling import path_array

__all__ = [
    "taper_estimate",
    "threshold_estimate",
    "choose_kappa",
    "adaptive_threshold",
]


def taper_estimate(Chat: CovMatrix, kappa: float, points: np.ndarray) -> CovMatrix:
    """Entrywise product of the estimate with the taper ramp at radius kappa.

    The diagonal is unchanged (the ramp is 1 at zero separation) and entries
    whose largest coordinate gap reaches 2*kappa are exactly zero.  A radius
    at or above every coordinate gap makes every weight 1, and Chat itself is
    returned.
    """
    if Chat.n != len(points):
        raise UsageError(f"matrix size {Chat.n} does not match grid size {len(points)}")
    _check_taper_radius(kappa)
    if kappa >= float(np.max(np.ptp(points, axis=0))):
        return Chat
    weights = taper_weight_matrix(kappa, points)
    weights *= Chat.entries
    return CovMatrix._derived(weights)  # the ramp is symmetric, in [0, 1]


def threshold_estimate(Chat: CovMatrix, rho: float) -> CovMatrix:
    """Hard thresholding: keep entries with |entry| >= rho (ties kept).

    Level zero keeps every entry, and Chat itself is returned.
    """
    if rho < 0:
        raise UsageError(f"threshold level must be >= 0, got {rho}")
    if rho == 0:
        return Chat
    kept = np.abs(Chat.entries)
    np.greater_equal(kept, rho, out=kept)
    kept *= Chat.entries  # entry * (|entry| >= rho): a dropped negative entry is -0.0
    return CovMatrix._derived(kept)


def choose_kappa(nu: NuSequence, N: int, d: int, scale: float) -> float:
    """Taper radius: the truncation index times the correlation scale.

    scale is the lengthscale when known, or the plugin effective-dimension
    value r_eff^(-1/d) otherwise.
    """
    if not scale > 0:
        raise UsageError(f"scale must be > 0, got {scale}")
    return m_star(nu, N, d) * scale


def adaptive_threshold(paths, c0: float, k_inf: float) -> float:
    """Data-driven threshold level from the empirical suprema of the (N, n) paths.

    rho_hat = c0 * sqrt(k_inf / N) * mean over the N rows of the signed
    maximum grid value of each path, where k_inf is the sup-kernel value (a
    trial passes the largest sample variance).  Theory wants c0 <= sqrt(N),
    which is not enforced here: tiny-N calls are still well defined, they
    just threshold aggressively.  The result can be negative for pathological
    draws (every path entirely below zero); callers that feed it to
    threshold_estimate will then see the level rejected.
    """
    paths = path_array(paths)
    if not c0 > 0:
        raise UsageError(f"c0 must be > 0, got {c0}")
    if k_inf < 0:
        raise UsageError(f"sup-kernel value must be >= 0, got {k_inf}")
    maxima = paths.max(axis=1)
    return c0 * math.sqrt(k_inf) / math.sqrt(paths.shape[0]) * float(np.mean(maxima))
