"""Matrices a trial derives from a checked CovMatrix without checking again.

CovMatrix refuses entries that are not finite and exactly symmetric where it
is built from raw arrays.  The taper and threshold estimates, the shuffled
truth and the error difference of a trial are derived from such matrices
without that O(n^2) pass; these properties are why skipping it is safe.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covlab import CovMatrix, build_grid, shuffle_cov, taper_estimate, threshold_estimate

# Magnitudes up to 1e300 keep every difference of two entries finite.
_ENTRY = st.floats(-1e300, 1e300)


@st.composite
def _checked_on_grid(draw, count=1):
    """(grid at d=1 or 2, count checked CovMatrix of its size)."""
    d = draw(st.sampled_from((1, 2)))
    grid = build_grid(d, draw(st.integers(2, 8 if d == 1 else 4)))
    n = len(grid)
    lower = np.tri(n, dtype=bool)
    mats = []
    for _ in range(count):
        raw = draw(arrays(np.float64, (n, n), elements=_ENTRY))
        mats.append(CovMatrix(entries=np.where(lower, raw, raw.T)))
    return grid, mats


def _assert_symmetric_and_finite(C):
    assert np.array_equal(C.entries, C.entries.T)
    assert np.all(np.isfinite(C.entries))


@given(_checked_on_grid(), st.floats(1e-3, 4.0))
def test_taper_estimate(case, kappa):
    grid, (C,) = case
    _assert_symmetric_and_finite(taper_estimate(C, kappa, grid))


@given(_checked_on_grid(), st.data())
def test_threshold_estimate(case, data):
    _, (C,) = case
    top = float(np.max(np.abs(C.entries)))
    level = data.draw(st.one_of(
        st.just(0.0),  # keeps every entry
        st.just(2.0 * top + 1.0),  # above the maximum: keeps none
        st.sampled_from(np.abs(C.entries).ravel().tolist()),  # a tie
        st.floats(0.0, 1e300),
    ))
    _assert_symmetric_and_finite(threshold_estimate(C, level))


@given(_checked_on_grid(), st.integers(0, 2**63 - 1))
def test_shuffle_cov(case, seed):
    _, (C,) = case
    shuffled, _ = shuffle_cov(C, seed)
    _assert_symmetric_and_finite(shuffled)


@given(_checked_on_grid(count=2))
def test_error_difference(case):
    _, (est, truth) = case
    buf = np.empty_like(truth.entries)
    np.subtract(est.entries, truth.entries, out=buf)
    _assert_symmetric_and_finite(CovMatrix._derived(buf))
