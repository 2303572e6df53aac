"""Kernel ridge regression: the base learner fitted on one partition.

The dual weights solve (K + n rho I) alpha = y, where K is the training
Gram matrix; predictions are f(x) = sum_i alpha_i k(x, X_i).  The n in
front of rho matches an objective with a 1/(2n) factor on the squared
loss, which is what the penalty schedule below assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import cho_factor, cho_solve
from .kernels import KernelSpec, cross_matrix, gram_matrix

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


def _solve_regularized(k: np.ndarray, y: np.ndarray, nrho: float) -> np.ndarray:
    """SPD solve of (K + nrho I) alpha = y with a bounded jitter ladder.

    Base jitter is 1e-12 tr(K)/n, escalated x10 at most 3 times.  One
    pass of iterative refinement keeps the representer residual at
    working precision even for stiff systems.

    ``k`` is overwritten: each attempt sets its diagonal to the saved
    diagonal plus nrho + jitter, the same sums a shifted copy would hold.
    The caller's Gram matrix is not read again, so a fit needs one n x n
    buffer fewer.

    The shifted matrix is factored through its transpose: LAPACK wants
    Fortran order, and a C-ordered matrix would first be copied with a
    strided transpose, while ``k.T`` is already Fortran-ordered and is
    copied contiguously.  ``gram_matrix`` is exactly symmetric and only
    the diagonal is shifted, so ``k.T`` is the same matrix bit for bit
    and the factor does not change.
    """
    n = k.shape[0]
    base = 1e-12 * float(np.trace(k)) / n
    diag = k.diagonal().copy()
    ynorm = float(np.linalg.norm(y))
    attempted = []
    jitter = 0.0
    for step in range(4):
        k.flat[:: n + 1] = diag + (nrho + jitter)
        try:
            factor = cho_factor(k.T, lower=True)
        except np.linalg.LinAlgError:
            attempted.append(jitter)
            jitter = base if jitter == 0.0 else 10.0 * jitter
            continue
        alpha = cho_solve(factor, y)
        resid = y - k @ alpha
        if np.linalg.norm(resid) > RESIDUAL_RTOL * ynorm:
            alpha = alpha + cho_solve(factor, resid)
            resid = y - k @ alpha
        if np.linalg.norm(resid) <= RESIDUAL_RTOL * max(ynorm, np.finfo(float).tiny):
            return alpha
        attempted.append(jitter)
        jitter = base if jitter == 0.0 else 10.0 * jitter
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
