"""Small shared utilities for the test suite."""

import numpy as np

import covlab.diagnostics


def random_psd(rng: np.random.Generator, n: int, jitter: float = 0.0) -> np.ndarray:
    """A random symmetric PSD matrix with eigenvalues of order 1."""
    A = rng.standard_normal((n, n))
    S = A @ A.T / n
    if jitter:
        S = S + jitter * np.eye(n)
    return (S + S.T) / 2.0


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random symmetric (generally indefinite) matrix."""
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def traced_peak_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, above
    what was allocated when it started."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Doubles a tridiagonal form may hold per row beyond half of the matrix:
# each compact-WY panel of w reflectors adds its w x w factor and the
# zeros and ones above its vectors, about 1.5 w per row, plus the O(n)
# arrays d, e and the spectrum.
FORM_EXTRA_PER_ROW = 3 * covlab.diagnostics._REFLECTOR_PANEL // 2 + 3


def form_doubles(form) -> int:
    """Doubles held by a TridiagonalForm."""
    flat = sum(a.size for a in (form.d, form.e, form.spectrum))
    return flat + sum(V.size + S.size for V, S in form.panels)
