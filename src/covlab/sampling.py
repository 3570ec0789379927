"""Cholesky factorization with a jitter ladder and seeded Gaussian paths.

Sampling follows a strict substream contract: path i is lower @ z_i, where
z_i holds the standard normals of a Philox generator keyed by
SeedSequence((seed, i)), so a path's normals depend only on the seed and
its own index.  ``draw_paths`` derives all N keys in one vectorized pass
and multiplies the normals by lower^T in zero-padded blocks of a fixed
32 rows.  Path i always sits in row i mod 32 of block i // 32 of a product
of the same shape, so drawing N+1 paths extends a draw of N bit for bit,
and any parallel schedule produces identical output.  A draw is a plain
(N, n) array, row i holding path i at the n grid points; ``sample_cov``
and the estimators take that array as it is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .grid_kernel import CovMatrix

__all__ = ["CholFactor", "cholesky_psd", "draw_paths", "sample_cov"]

# Largest diagonal shift cholesky_psd tries, relative to tr(C)/n.
_JITTER_BUDGET = 1e-6

# Rows per product with lower^T; fixed, so no path's bits depend on N.
_BLOCK = 32

# numpy's SeedSequence mixing constants (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True, eq=False)
class CholFactor:
    """Lower-triangular factor of a (possibly jittered) covariance matrix."""

    lower: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


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
            return CholFactor(lower=lower, jitter_used=jitter)
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


def _hash_constants(h: int, mult: int):
    """numpy's chain of SeedSequence hash constants: pairs (h_k, h_k * mult mod 2^32)."""
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value: np.ndarray, constants) -> np.ndarray:
    xor, mul = next(constants)
    value = (value ^ xor) * mul
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> 16)


def _substream_keys(seed: int, N: int) -> np.ndarray:
    """(N, 2) uint64 Philox keys: row i is SeedSequence((seed, i)).generate_state(2, np.uint64).

    numpy's SeedSequence mixing (pool of four 32-bit words) run on whole
    columns of uint32 words.  The entropy is seed's 32-bit words, least
    significant first, then i's one word, zero-padded to the pool size; the
    hash constants do not depend on the words, so each step is one array
    operation over all N paths.
    """
    seed = operator.index(seed)
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), N), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(N, dtype=np.uint32)

    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))

    consts = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(word, consts) for word in pool], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)  # two words per key, low first


def draw_paths(factor: CholFactor, N: int, seed: int) -> np.ndarray:
    """Draw N paths u_i = lower @ z_i with z_i from substream (seed, i).

    One Philox generator, rekeyed before each path with a zero counter and
    an empty buffer, gives path i the normals of a fresh
    Generator(Philox(SeedSequence((seed, i)))) bit for bit.  Each block of
    _BLOCK paths' normals, zero past N, is one BLAS product with lower^T.
    The fixed block shape keeps a draw of N+1 an extension of a draw of N;
    one product over all N rows can round a row differently as N changes.
    Returns a fresh, C-contiguous, read-only (N, n) array: row i is path i.
    """
    if N < 1:
        raise UsageError(f"need at least one path, got N={N}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    n = factor.n
    keys = _substream_keys(seed, N)
    bitgen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh generator's: zero counter, empty buffer
    lower_t = factor.lower.T
    Z = np.zeros((_BLOCK, n), dtype=np.float64)
    U = np.empty((_BLOCK, n), dtype=np.float64)
    paths = np.empty((N, n), dtype=np.float64)
    for start in range(0, N, _BLOCK):
        rows = min(_BLOCK, N - start)
        for r in range(rows):
            state["state"]["key"] = keys[start + r]
            bitgen.state = state
            gen.standard_normal(out=Z[r])
        Z[rows:] = 0.0
        np.matmul(Z, lower_t, out=U)
        paths[start:start + rows] = U[:rows]
    paths.setflags(write=False)
    return paths


def path_array(paths) -> np.ndarray:
    """The (N, n) paths as a float64 array, without a copy if they are one.

    Refuses anything but a non-empty 2-D array-like.
    """
    paths = np.asarray(paths, dtype=np.float64)
    if paths.ndim != 2 or 0 in paths.shape:
        raise UsageError(f"paths must be a non-empty (N, n) array, got shape {paths.shape}")
    return paths


def sample_cov(paths) -> CovMatrix:
    """Uncentered sample covariance (1/N) sum_n u_n u_n^T of the (N, n) paths.

    The model is centered, so no mean is subtracted.  numpy computes the
    Gram product P^T P of one array with its own transpose on BLAS's syrk
    path, which fills one triangle and mirrors it, so the result is exactly
    symmetric without a pass of its own; CovMatrix would refuse it if not.
    """
    paths = path_array(paths)
    G = paths.T @ paths
    G /= paths.shape[0]
    return CovMatrix(entries=G)
