"""Kernel ridge regression: the base learner fitted on one partition.

The dual weights solve (K + n rho I) alpha = y, where K is the training
Gram matrix; predictions are f(x) = sum_i alpha_i k(x, X_i).  The n in
front of rho matches an objective with a 1/(2n) factor on the squared
loss, which is what the penalty schedule below assumes.  A fit holds one
n x n buffer, plus at most a kernel block: a Gram of more than
``ROW_BLOCK_ENTRIES`` entries is shifted, factored and solved in place,
then restored from its untouched triangle for the residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import cho_factor, cho_solve
from .kernels import ROW_BLOCK_ENTRIES, KernelSpec, cross_matrix, gram_matrix

RESIDUAL_RTOL = 1e-8


class FitNumericalError(RuntimeError):
    """Factorization kept failing after jitter escalation."""

    def __init__(self, message, jitters):
        super().__init__(f"{message} (attempted jitters: {jitters})")
        self.jitters = list(jitters)


@dataclass(frozen=True)
class Sample:
    """Training data: covariate rows index-aligned with responses."""

    covariates: np.ndarray  # (n, d)
    responses: np.ndarray  # (n,)

    def __post_init__(self):
        x = np.asarray(self.covariates, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        y = np.asarray(self.responses, dtype=np.float64).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"covariates ({x.shape[0]} rows) and responses ({y.shape[0]}) disagree"
            )
        if x.shape[0] < 1:
            raise ValueError("sample must contain at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "covariates", x)
        object.__setattr__(self, "responses", y)

    @property
    def size(self) -> int:
        return self.covariates.shape[0]


@dataclass(frozen=True)
class KrrFit:
    """Fitted regressor: anchors are the training covariates."""

    kernel: KernelSpec
    anchors: np.ndarray
    dual_weights: np.ndarray


_PANEL = 64  # columns per panel of the triangle copy in _solve_shifted
_PANEL_UPPER = np.triu(np.ones((_PANEL, _PANEL), dtype=bool), 1)


def _solve_shifted(k: np.ndarray, shifted: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve k x = b for the symmetric C-ordered k; k is left as it was.

    LAPACK wants Fortran order, and ``k.T`` already is.  k is exactly
    symmetric (only its diagonal is shifted from ``gram_matrix``'s), so
    ``k.T`` is the same matrix and the factor is the same bit for bit.
    A k of at most ``ROW_BLOCK_ENTRIES`` entries (n <= 256) is factored in
    a contiguous copy: at n = 16, 64 and 256 the copy took 0.6, 1.5 and
    16 us and the triangle copy below 3.6, 7.4 and 62 us.  A larger k is factored in place: factoring
    the lower triangle of ``k.T`` overwrites k's upper triangle and
    diagonal and leaves the strict lower triangle as it was.  Afterwards,
    on success or failure, the upper triangle is copied back from the
    lower one, one panel of columns at a time, and the diagonal is set to
    ``shifted``.  So a fit holds one n x n buffer plus at most a kernel
    block.
    """
    n = k.shape[0]
    if k.size <= ROW_BLOCK_ENTRIES:
        return cho_solve(cho_factor(k.T.copy(order="F"), lower=True), b)
    try:
        return cho_solve(cho_factor(k.T, lower=True), b)
    finally:
        for lo in range(0, n, _PANEL):
            hi = min(lo + _PANEL, n)
            k[:lo, lo:hi] = k[lo:hi, :lo].T
            block = k[lo:hi, lo:hi]
            np.copyto(block, block.T, where=_PANEL_UPPER[: hi - lo, : hi - lo])
        k.flat[:: n + 1] = shifted


def _solve_regularized(k: np.ndarray, y: np.ndarray, nrho: float) -> np.ndarray:
    """SPD solve of (K + nrho I) alpha = y with a bounded jitter ladder.

    Base jitter is 1e-12 tr(K)/n, escalated x10 at most 3 times.  One
    pass of iterative refinement keeps the representer residual at
    working precision even for stiff systems.

    ``k`` is overwritten: each attempt sets its diagonal to the saved
    diagonal plus nrho + jitter, the same sums a shifted copy would hold,
    and ``_solve_shifted`` leaves it holding that matrix, so the residual
    is the gemv of the shifted matrix.  The caller's Gram matrix is not
    read again.  The refinement step, which no shipped configuration
    reaches, factors the shifted matrix again.
    """
    n = k.shape[0]
    diag = k.diagonal().copy()
    ynorm = float(np.linalg.norm(y))
    attempted = []
    jitter = 0.0
    for step in range(4):
        shifted = diag + (nrho + jitter)
        k.flat[:: n + 1] = shifted
        try:
            alpha = _solve_shifted(k, shifted, y)
        except np.linalg.LinAlgError:
            pass
        else:
            resid = y - k @ alpha
            rnorm = np.linalg.norm(resid)
            if rnorm > RESIDUAL_RTOL * ynorm:
                alpha = alpha + _solve_shifted(k, shifted, resid)
                rnorm = np.linalg.norm(y - k @ alpha)
            if rnorm <= RESIDUAL_RTOL * max(ynorm, np.finfo(float).tiny):
                return alpha
        attempted.append(jitter)
        jitter = 1e-12 * float(np.sum(diag)) / n if jitter == 0.0 else 10.0 * jitter
    raise FitNumericalError("kernel system could not be solved accurately", attempted)


def fit(sample: Sample, kernel: KernelSpec, rho: float, gram=None) -> KrrFit:
    """Fit kernel ridge regression with penalty rho > 0.

    ``gram`` is the Gram matrix of ``sample.covariates`` when the caller
    has already evaluated it (``dnc.fit_all_partitions`` evaluates a
    group of partitions' at once); it is overwritten.
    """
    if not (rho > 0):
        raise ValueError(f"penalty rho must be positive, got {rho}")
    k = gram_matrix(kernel, sample.covariates) if gram is None else gram
    if k.shape != (sample.size, sample.size):
        raise ValueError(f"gram has shape {k.shape}, expected n x n with n={sample.size}")
    alpha = _solve_regularized(k, sample.responses, sample.size * rho)
    return KrrFit(kernel, sample.covariates, alpha)


def predict(fitted: KrrFit, points) -> np.ndarray:
    """Evaluate the fitted regressor at each prediction point."""
    kx = cross_matrix(fitted.kernel, points, fitted.anchors)
    return kx @ fitted.dual_weights


def penalty_schedule(n_total: int, b: float, r_prime: float, c: float = 1.0) -> float:
    """Penalty rho = c * N^(-b / (2 b r' + 1)) for total sample size N.

    r' = 1/2 is admitted: it is the undersmoothing value the band
    construction runs at, even though the source-condition exponent it
    mirrors lives in (1/2, 1].
    """
    if n_total < 1:
        raise ValueError(f"N must be a positive integer, got {n_total}")
    if not (b > 1):
        raise ValueError(f"decay exponent b must exceed 1, got {b}")
    if not (0.5 <= r_prime <= 1.0):
        raise ValueError(f"r' must lie in [1/2, 1], got {r_prime}")
    if not (c > 0):
        raise ValueError(f"schedule constant c must be positive, got {c}")
    return c * float(n_total) ** (-b / (2.0 * b * r_prime + 1.0))
