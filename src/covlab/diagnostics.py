"""Spectral norms, effective dimension, sparsity/capacity functionals,
banding tail sequences, the truncation pair, and the Gaussian KL
divergence.

All operator-level quantities are grid-weighted matrix quantities: with
the quadrature weight h = L^-d = 1/n of an n-point grid (``CovMatrix.h``),
the operator norm is h times the matrix spectral norm and the operator
trace is h times the matrix trace.  Ratios of the two, such as r_eff and
Gamma_1, do not depend on h.
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
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NumericError, UsageError
from .grid_kernel import CovMatrix, KernelSpec, Matern, SquaredExponential
from .sampling import CholFactor, draw_paths

__all__ = [
    "spectral_norm",
    "TridiagonalForm",
    "tridiagonal_form",
    "lowrank_update_norm",
    "LOWRANK_MAX_RANK",
    "OperatorQuantities",
    "operator_quantities",
    "gamma1",
    "gamma2",
    "NuSequence",
    "m_star",
    "eps_star",
    "kl_gaussian",
    "kl_gaussian_both",
]

_DENSE_CUTOFF = 256  # below this, a direct eigensolve beats iteration
_LANCZOS_SEED = 0x5EED_0C0B


# -------------------------------------------------------- spectral norm ----


# Largest asymmetry, or centro-asymmetry, relative to max |entry| that is
# taken for rounding and folded in.
_FOLD_TOL = 1e-12


def _largest_gap(A: np.ndarray, B: np.ndarray) -> float:
    """max(A - B), 64 rows at a time: max |A - B| for B = A^T or A rotated
    by 180 degrees, as A - B then holds each difference and its negation."""
    return max(float(np.subtract(A[i:i + 64], B[i:i + 64]).max()) for i in range(0, len(A), 64))


def _symmetric(A, name: str) -> np.ndarray:
    """A as an exactly symmetric float64 array.

    A must be square and finite, and symmetric to within 1e-12 of its
    largest |entry|; any smaller asymmetry is folded in.  A CovMatrix was
    checked exactly when it was made, so its entries are not read again.
    """
    if isinstance(A, CovMatrix):
        return np.asarray(A.entries, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise UsageError(f"{name} must be square, got shape {A.shape}")
    if not A.size:
        return A
    scale = max(float(A.max()), -float(A.min()))
    if not math.isfinite(scale):
        raise UsageError("matrix has a non-finite entry (nan or inf)")
    asym = _largest_gap(A, A.T)
    if asym > _FOLD_TOL * scale:
        raise UsageError(f"{name} is not symmetric: relative asymmetry {asym / scale:.3e}")
    if asym != 0.0:
        A = np.add(A, A.T)
        A /= 2.0
    return A


# ARPACK gets max(10, n // divisor) restarts before a dense solve; a restart
# costs 10 to 19 matvecs at scipy's default ncv=20.  A tightly clustered top
# of the spectrum can keep ARPACK restarting for thousands of matvecs, where a
# dense solve costs a few hundred at n=1250, so a matrix gets about
# max(100, n/16) matvecs.  A difference operator's matvec costs far less than
# a pass over an n x n matrix, so it gets four times the restarts: the
# clustered-top threshold errors of the figure sweep need up to about 240
# matvecs at n=1250.
_MATRIX_RESTART_DIVISOR = 160
_OPERATOR_RESTART_DIVISOR = 40


def _arpack_top(A, tol: float, divisor: int = _MATRIX_RESTART_DIVISOR) -> Optional[float]:
    """|top eigenvalue| of an exactly symmetric A (an array or a
    ``LinearOperator``) from ARPACK, or None when ARPACK does not converge
    within max(10, n // divisor) restarts."""
    n = A.shape[0]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((_LANCZOS_SEED, n))))
    v0 = np.ones(n) + 0.01 * rng.standard_normal(n)
    try:
        top = eigsh(
            A, k=1, which="LM", tol=tol, v0=v0, maxiter=max(10, n // divisor),
            return_eigenvectors=False,
        )
    except ArpackError:  # no convergence, or error -9 on an all-zero A
        return None
    return float(abs(top[0]))


@dataclass(frozen=True, eq=False)
class _DifferenceOperator:
    """An estimate minus the truth, E - C, given by its action on vectors.

    ``matvec(v)`` returns (E - C) v for a length-n vector v; it must be the
    action of a symmetric matrix to rounding.  ``dense()`` returns E - C as an
    exactly symmetric (n, n) array; ``spectral_norm`` calls it only for a
    dense solve.
    """

    n: int
    matvec: Callable[[np.ndarray], np.ndarray]
    dense: Callable[[], np.ndarray]


def _check_tol(tol: float) -> None:
    if not (1e-14 < tol < 1e-2):
        raise UsageError(f"tolerance must lie in (1e-14, 1e-2), got {tol}")


def spectral_norm(
    A: np.ndarray | CovMatrix | _DifferenceOperator,
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
    tolerance contract always holds.  ``method`` 'auto' solves densely up
    to n=256 and iterates above; 'arpack' and 'dense' force one path.  An
    array must be square, finite and symmetric to within 1e-12 of its largest
    entry, and its last-bit asymmetry is folded in; a CovMatrix is not
    checked again.  A trial's error operator (``_DifferenceOperator``) is
    iterated through its matvec with max(10, n/40) restarts and is formed
    with its ``dense()`` only for the dense solve.
    """
    if method not in ("auto", "arpack", "dense"):
        raise UsageError(f"unknown method {method!r}")
    _check_tol(tol)
    if isinstance(A, _DifferenceOperator):
        n, divisor = A.n, _OPERATOR_RESTART_DIVISOR
        op = LinearOperator((n, n), matvec=A.matvec, dtype=np.float64)
    else:
        A = op = _symmetric(A, "matrix")
        n, divisor = A.shape[0], _MATRIX_RESTART_DIVISOR
    if n == 0:
        return 0.0
    if n > 1 and method != "dense" and (method == "arpack" or n > _DENSE_CUTOFF):
        top = _arpack_top(op, tol, divisor)
        if top is not None:
            return top
    if isinstance(A, _DifferenceOperator):
        A = A.dense()
    return float(np.max(np.abs(np.linalg.eigvalsh(A))))


# ------------------------------------------------- tridiagonal form ----

# Reflectors per compact-WY panel of a tridiagonal form's Q.  Each panel
# stores its Householder vectors unpacked and its w x w triangular factor,
# about 1.5 n w doubles beyond half of A in all.
_REFLECTOR_PANEL = 32
# Largest rank r of a low-rank update whose norm comes from inertia counts.
# One count costs an n x r tridiagonal solve and an r x r eigensolve, and
# about 20 counts make a norm.  At n=1250 on 2 CPUs the norm of a random
# block took 0.03 s at r=40 and 0.16-0.37 s at r=128, against 0.22-0.27 s
# for ARPACK's failed attempt plus the dense solve; at r=200 the two were
# even.
LOWRANK_MAX_RANK = 128


@dataclass(frozen=True, eq=False)
class TridiagonalForm:
    """A = Q T Q^T from LAPACK's Householder reduction (dsytrd, lower).

    T has diagonal d and off-diagonal e; Q = H_0 ... H_{n-2} with
    H_j = I - tau_j v_j v_j^T, where v_j is zero above row j+1 and one at
    row j+1.  ``panels`` holds Q as consecutive blocks of reflectors in
    compact WY form: a block starting at reflector j0 is (V, S) with
    H_j0 ... H_{j0+w-1} = I - V S V^T on rows j0+1 and below, V the
    reflectors' vectors there and S upper triangular.  ``spectrum`` is T's
    (and A's) eigenvalues, ascending.

    A ``split`` form (of a centrosymmetric A) has Q = K^T blockdiag(Q_1, Q_2),
    K the half-sum and half-difference map of ``transpose_apply``; e is 0.0
    at the seam of the blocks, and Q_2's panels follow Q_1's.
    """

    d: np.ndarray
    e: np.ndarray
    panels: tuple
    spectrum: np.ndarray
    split: bool = False

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def norm(self) -> float:
        return float(max(-self.spectrum[0], self.spectrum[-1]))

    def transpose_apply(self, X: np.ndarray) -> np.ndarray:
        """Q^T X for an (n, k) X: X <- (I - V S^T V^T) X, one panel at a
        time from the first, so no (n, n) array is formed.  A split form
        first takes X's halves to (X_top +- J X_bot) / sqrt 2, J reversing
        row order; an odd n's middle row ends the first block."""
        X = np.array(X, dtype=np.float64)
        if self.split:
            m = self.n // 2
            flip = X[self.n - m:][::-1]
            X[:m], X[self.n - m:] = (X[:m] + flip) / math.sqrt(2.0), (X[:m] - flip) / math.sqrt(2.0)
        j0 = 0
        for V, S in self.panels:
            rows = X[j0 + 1:j0 + 1 + V.shape[0]]
            rows -= V @ (S.T @ (V.T @ rows))
            j0 += S.shape[0] + (V.shape[0] == S.shape[0])  # past a block's end: skip the seam
        return X


def _wy_panels(c: np.ndarray, tau: np.ndarray) -> tuple:
    """Compact WY panels of the reflectors below the subdiagonal of dsytrd's
    lower output c; S follows LAPACK's dlarft (forward, columnwise)."""
    n = c.shape[0]
    panels = []
    for j0 in range(0, n - 1, _REFLECTOR_PANEL):
        w = min(_REFLECTOR_PANEL, n - 1 - j0)
        V = np.tril(c[j0 + 1:, j0:j0 + w], -1)
        V[np.arange(w), np.arange(w)] = 1.0
        gram = V.T @ V
        S = np.zeros((w, w))
        for i, t in enumerate(tau[j0:j0 + w]):
            S[i, i] = t
            S[:i, i] = -t * (S[:i, :i] @ gram[:i, i])
        panels.append((V, S))
    return tuple(panels)


def _reduce(blocks: list) -> TridiagonalForm:
    """The form of blockdiag(*blocks): a blocked ``dsytrd`` per exactly
    symmetric block (its output dropped once its reflectors are in panels;
    B^T is Fortran-ordered and equal to B, so it is passed uncopied), then
    one ``dsterf`` on the joined tridiagonal for the spectrum."""
    ds, es, panels = [], [], []
    for B in blocks:
        lwork = int(scipy.linalg.lapack.dsytrd_lwork(B.shape[0], lower=1)[0])
        c, d, e, tau, info = scipy.linalg.lapack.dsytrd(B.T, lower=1, lwork=max(lwork, 1))
        if info != 0:
            raise NumericError(f"LAPACK dsytrd failed with info={info}")
        panels += _wy_panels(c, tau)
        del c
        ds.append(d)
        es += [np.zeros(1), e] if es else [e]
    d, e = np.concatenate(ds), np.concatenate(es)
    spectrum, info = (d.copy(), 0) if d.size == 1 else scipy.linalg.lapack.dsterf(d, e)
    if info != 0:
        raise NumericError(f"LAPACK dsterf failed with info={info}")
    return TridiagonalForm(d=d, e=e, panels=tuple(panels), spectrum=spectrum, split=len(blocks) > 1)


def tridiagonal_form(A: np.ndarray | CovMatrix) -> TridiagonalForm:
    """Householder tridiagonal form of a non-empty symmetric matrix, after
    the input checks of ``spectral_norm`` (last-bit asymmetry folded in).

    A matrix also centrosymmetric, A[n-1-i, n-1-j] = A[i, j] to within 1e-12
    of max |A| (as a stationary kernel on the symmetric grid is), gives the
    split form of its fold P = (A + A[::-1, ::-1]) / 2: with m = n // 2 and
    H = P[:m, n-m:] J, P is orthogonally similar to blockdiag(P[:m, :m] + H,
    P[:m, :m] - H) (Cantoni & Butler 1976), two half-size reductions.  An
    odd n's first block also holds P's middle row and column, times sqrt 2
    off the diagonal.  Any other matrix is reduced as one block.
    """
    A = _symmetric(A, "matrix")
    if not A.size:
        raise UsageError("tridiagonal_form needs a non-empty matrix")
    n, m = A.shape[0], A.shape[0] // 2
    scale = max(float(A.max()), -float(A.min()))
    if n == 1 or _largest_gap(A, A[::-1, ::-1]) > _FOLD_TOL * scale:
        return _reduce([A])
    P = A[:m] + A[n - m:][::-1, ::-1]  # twice the top rows of the fold
    P *= 0.5
    H = P[:, ::-1][:, :m]
    first = np.empty((n - m, n - m))
    first[:m, :m] = P[:, :m] + H
    if n - m > m:
        first[:m, m] = first[m, :m] = math.sqrt(2.0) * P[:, m]
        first[m, m] = A[m, m]
    return _reduce([first, P[:, :m] - H])


def lowrank_update_norm(form: TridiagonalForm, rows: np.ndarray, block: np.ndarray) -> float:
    """Spectral norm of U B U^T - A, where A = Q T Q^T is the form's matrix,
    U holds the identity columns ``rows`` and B is the symmetric ``block``.

    With B = W Omega W^T over its nonzero eigenvalues, G = Q^T U W |Omega|^(1/2)
    and s = sign(Omega), Haynsworth's inertia additivity gives the number of
    eigenvalues of E = U B U^T - A above sigma as
    #{lambda(T) < -sigma} + pos(G^T (T + sigma)^-1 G - s) - #{s < 0},
    so each count costs one tridiagonal solve (``dgtsv``) and one r x r
    eigensolve.  A bisection on the count, sped up by Newton steps, gives
    lambda_min(E) to the last bit inside its interlacing bracket; one count
    at |lambda_min| then decides whether lambda_max needs a search of its
    own.  Every product and eigensolve is numpy's, like the rest of a
    trial: switching to scipy's OpenBLAS while numpy's threads still spin
    stalls both.  ``dgtsv`` calls no BLAS.  An empty ``rows`` gives |A|.
    """
    rows = np.asarray(rows, dtype=np.intp)
    block = np.asarray(block, dtype=np.float64)
    n, r = form.n, rows.size
    if rows.ndim != 1 or block.shape != (r, r):
        raise UsageError(f"block of shape {block.shape} does not match {r} rows")
    if r == 0:
        return form.norm
    if rows.min() < 0 or rows.max() >= n or np.unique(rows).size != r:
        raise UsageError(f"rows must be distinct indices below {n}")
    block = _symmetric(block, "block")
    omega, W = np.linalg.eigh(block)
    keep = omega != 0.0
    omega, W = omega[keep], W[:, keep]
    if omega.size == 0:
        return form.norm
    X = np.zeros((n, omega.size))
    X[rows] = W * np.sqrt(np.abs(omega))
    G = form.transpose_apply(X)
    sign = np.sign(omega)
    negative = int(np.sum(omega < 0.0))
    spectrum, d, e = form.spectrum, form.d, form.e

    def above(sigma: float, target: Optional[int] = None) -> tuple:
        """(number of eigenvalues of E above sigma, Newton step toward the
        point where that number falls below target, or None).

        Between two eigenvalues of -T the eigenvalues of the r x r matrix
        all decrease in sigma, with slope -|Y u|^2 for eigenvector u; the
        step follows the one whose sign change moves the count past target.
        """
        while True:
            shifted = d + sigma
            if n == 1:  # dgtsv needs n >= 2
                Y, info = (G / shifted[0], 0) if shifted[0] else (None, 1)
            else:
                _, _, _, Y, info = scipy.linalg.lapack.dgtsv(e, shifted, e, G)
            if info <= 0:
                break
            # sigma is an eigenvalue of -T: count just above it
            sigma = float(np.nextafter(sigma, math.inf))
        M = G.T @ Y
        M[np.diag_indices_from(M)] -= sign
        below = int(np.searchsorted(spectrum, -sigma))
        if target is None:
            mu = np.linalg.eigvalsh(M)
            return below + int(np.sum(mu > 0.0)) - negative, None
        mu, U = np.linalg.eigh(M)
        count, j = below + int(np.sum(mu > 0.0)) - negative, mu.size - (target - below + negative)
        if not 0 <= j < mu.size:
            return count, None
        Yu = Y @ U[:, j]
        slope = float(np.dot(Yu, Yu))
        return count, (float(mu[j]) / slope if slope > 0.0 else None)

    def crossing(lo: float, hi: float, target: int, lo_holds: bool = False) -> float:
        """The least float in (lo, hi] with fewer than target eigenvalues of
        E above it.

        Bisection on the count, after the bracket is checked (unless
        lo_holds says its lower end is known to hold).  Once no eigenvalue
        of -T lies inside the bracket, a Newton step from the last point
        replaces the midpoint when it lands inside and is at most half the
        step before it; a step below rounding grows by doubling ulps, so the
        far end closes in too.  Every point is counted, so the bracket holds
        throughout and the result has the last-bit accuracy of bisection.
        """
        if not (lo_holds or above(lo)[0] >= target) or above(hi)[0] >= target:
            raise NumericError("eigenvalue counts contradict the interlacing bracket")
        guess, last, push = None, hi - lo, 0
        while True:
            mid = lo + 0.5 * (hi - lo)
            if not lo < mid < hi:
                return float(hi)
            x = guess if guess is not None and lo < guess < hi else mid
            pole_free = np.searchsorted(spectrum, -hi) == np.searchsorted(spectrum, -lo)
            count, step = above(x, target if pole_free else None)
            if count >= target:
                lo = x
            else:
                hi = x
            guess = None
            if step is not None and abs(step) <= 0.5 * last:
                tiny = 2.0 ** push * abs(np.spacing(x))
                push = push + 1 if abs(step) < tiny else 0
                guess = x + math.copysign(max(abs(step), tiny), step)
            last = abs(guess - x) if guess is not None else 0.5 * (hi - lo)

    scale = form.norm + float(np.max(np.abs(omega)))
    margin = 16.0 * np.finfo(np.float64).eps * scale
    positive = omega.size - negative
    # Weyl and interlacing: -lambda_n + min(omega, 0) <= lambda_min(E) <=
    # min(-lambda_n + max(omega, 0), -lambda_{n-p}) with p positive omegas.
    lo = -spectrum[-1] + min(float(omega.min()), 0.0) - margin
    hi = -spectrum[-1] + max(float(omega.max()), 0.0)
    if positive < n:
        hi = min(hi, -spectrum[n - 1 - positive])
    top = abs(crossing(lo, hi + margin, n))
    if above(top)[0] == 0:
        return top
    hi = -spectrum[0] + max(float(omega.max()), 0.0) + margin
    return max(top, abs(crossing(top, hi, 1, lo_holds=True)))


# ------------------------------------------------- operator quantities ----


@dataclass(frozen=True)
class OperatorQuantities:
    trace_op: float
    op_norm: float
    r_eff: float
    # C's tridiagonal form, kept when ARPACK gave up on |C|.
    form: Optional["TridiagonalForm"] = field(default=None, compare=False, repr=False)


def operator_quantities(C: CovMatrix, *, tol: float = 1e-9) -> OperatorQuantities:
    """Operator trace, operator norm, and effective dimension Tr/norm.

    |C| is ``spectral_norm``'s, except that a norm ARPACK cannot resolve
    comes from C's tridiagonal form, which the result then holds, instead of
    from a dense eigenvalue solve that discards it.
    """
    _check_tol(tol)
    trace_m = float(np.trace(C.entries))
    A = _symmetric(C, "C")  # a CovMatrix passes unread
    norm_m = _arpack_top(A, tol) if A.shape[0] > _DENSE_CUTOFF else spectral_norm(C, tol)
    form = None
    if norm_m is None:
        form = tridiagonal_form(C)
        norm_m = form.norm
    if norm_m == 0.0:
        raise UsageError("zero operator has no effective dimension")
    return OperatorQuantities(
        trace_op=C.h * trace_m,
        op_norm=C.h * norm_m,
        r_eff=trace_m / norm_m,  # the grid weight cancels exactly
        form=form,
    )


def gamma1(C: CovMatrix, q: float, *, op_norm: Optional[float] = None) -> float:
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
        op_norm = C.h * spectral_norm(C)
    if op_norm == 0.0:
        raise UsageError("zero operator has no sparsity functional")
    row_q = float(np.max(np.sum(abs_e**q, axis=1))) * C.h
    return row_q * k_inf ** (1.0 - q) / op_norm


def gamma2(factor: CholFactor, M_mc: int, seed: int) -> tuple[float, float]:
    """Monte Carlo capacity estimate E[max_i u(x_i)] / sqrt(max_i k(x_i,x_i)).

    Returns the estimate and the standard error of the Monte Carlo mean
    (both on the normalized scale).
    """
    if M_mc < 2:
        raise UsageError(f"capacity estimate needs M_mc >= 2 draws, got {M_mc}")
    diag = np.sum(factor.lower * factor.lower, axis=1)  # diag of L L^T
    k_inf = float(np.max(diag))
    if k_inf <= 0.0:
        raise UsageError("factored matrix has zero diagonal; capacity undefined")
    maxima = draw_paths(factor, M_mc, seed).max(axis=1)
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

    _fn: Optional[Callable[[int], float]] = None
    _table: Optional[tuple] = None
    _memo: dict = field(default_factory=dict)

    @staticmethod
    def se_d1() -> "NuSequence":
        denom = scipy.special.erfc(1.0 / math.sqrt(2.0))
        return NuSequence(_fn=lambda m: float(scipy.special.erfc(m / math.sqrt(2.0)) / denom))

    @staticmethod
    def exponential() -> "NuSequence":
        return NuSequence(_fn=lambda m: math.exp(-(m - 1.0)))

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
        return NuSequence(_fn=lambda m: _tail_integral(unit, d, float(m)) / denom)

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
        return NuSequence(_table=vals)

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


# ------------------------------------------------------------------ KL ----


def _kl_directions(S1: np.ndarray, S2: np.ndarray) -> tuple:
    """Both KL directions after kl_gaussian's input checks, S2 cleared to the
    floor lambda_min > 1e-12 |lambda|_max; the reverse is None when S1 is not,
    and a singular S1 gives (+inf, None).  Gershgorin discs bound S2's
    spectrum to [lo, hi], hence S1's to [lam_min lo, lam_max hi]; a matrix is
    solved on its own only when its bound cannot settle the floor.  Every
    solve is scipy's: alternating with numpy's OpenBLAS stalls each switch.
    """
    S1, S2 = (np.asarray(S, dtype=np.float64) for S in (S1, S2))
    if S1.shape != S2.shape or S1.ndim != 2 or S1.shape[0] != S1.shape[1]:
        raise UsageError(f"need square matrices of equal size, got {S1.shape} vs {S2.shape}")
    if not S1.size:
        raise UsageError("KL divergence needs non-empty matrices")
    S1, S2 = _symmetric(S1, "S1"), _symmetric(S2, "S2")
    radius = np.abs(S2 - np.diag(np.diag(S2))).sum(axis=1)
    lo, hi = float(np.min(np.diag(S2) - radius)), float(np.max(np.diag(S2) + radius))
    if not (lo > 0.0 and lo > 1e-12 * hi):
        e2 = scipy.linalg.eigvalsh(S2)
        if e2[0] <= 1e-12 * max(abs(e2[0]), abs(e2[-1])):
            raise UsageError("S2 must be positive definite for the KL formula")
        lo, hi = float(e2[0]), float(e2[-1])
    lam = scipy.linalg.eigh(S1, S2, eigvals_only=True)
    s1_definite = bool(lam[0] > 0.0 and lam[0] * lo > 1e-12 * lam[-1] * hi)
    if not s1_definite:
        e1 = scipy.linalg.eigvalsh(S1)
        scale1 = max(abs(e1[0]), abs(e1[-1]))
        if e1[0] < -1e-12 * scale1:
            raise UsageError("S1 must be positive semi-definite")
        if e1[0] <= 0.0 or lam[0] <= 0.0:
            return math.inf, None
        s1_definite = bool(e1[0] > 1e-12 * scale1)
    nu = lam - 1.0
    log1p = np.log1p(nu)
    reverse = max(0.5 * float(np.sum(log1p - nu / lam)), 0.0)
    return max(0.5 * float(np.sum(nu - log1p)), 0.0), reverse if s1_definite else None


def kl_gaussian(S1: np.ndarray, S2: np.ndarray) -> float:
    """KL divergence between centered Gaussians N(0, S1) and N(0, S2).

    One generalized eigensolve S1 v = lam S2 v gives both directions with no
    trace cancelled against n: with nu = lam - 1, KL(S1 || S2) is
    sum(nu - log1p nu) / 2 and KL(S2 || S1), which ``kl_gaussian_both`` also
    returns, is sum(log1p nu - nu / lam) / 2.  A singular S1 gives +inf.
    """
    return _kl_directions(S1, S2)[0]


def kl_gaussian_both(S1: np.ndarray, S2: np.ndarray) -> tuple:
    """(KL(S1 || S2), KL(S2 || S1)) as in ``kl_gaussian``; S1 must clear S2's floor."""
    forward, reverse = _kl_directions(S1, S2)
    if reverse is None:
        raise UsageError("S1 must be positive definite for the reverse KL formula")
    return forward, reverse
