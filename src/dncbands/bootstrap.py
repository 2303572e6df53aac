"""Bootstrap replicates of the averaged prediction vector.

Both schemes compute deltas = W @ (V - v_bar) / P, where V is the P x T
matrix of local estimator values, v_bar its pinned row mean and W a
B x P weight matrix, one law per scheme: resample counts of P draws
with replacement (empirical) or i.i.d. N(1, 1) weights (multiplier).
Centring makes the deltas invariant to shifting every local prediction
by a constant.  A column whose P values are all equal is centred to
exactly zero, so its deltas are exactly zero and calibration flags it
as degenerate.  No kernel is evaluated and the raw data are never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dnc import LocalPredictionMatrix

SCHEMES = ("empirical", "multiplier")


@dataclass(frozen=True)
class BootstrapDraws:
    """B x T matrix of centered bootstrap deltas, one row per replicate."""

    deltas: np.ndarray  # (B, T), row b = f_bar^b - f_bar

    @property
    def replicates(self) -> int:
        return self.deltas.shape[0]


def _weighted_deltas(values: np.ndarray, row_mean: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W @ (V - v_bar) / P, with constant columns of V centred to exactly 0."""
    constant = np.all(values == values[0], axis=0)
    centered = np.where(constant, 0.0, values - row_mean)
    deltas = weights @ centered
    deltas /= values.shape[0]
    return deltas


def resample_deltas(values: np.ndarray, row_mean: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Centered resample averages for given row-index draws.

    idx has one row of P indices in [0, P) per replicate; each row
    becomes the count of every index in it, the replicate's weight vector.
    """
    b, p = idx.shape
    if idx.size and not (0 <= idx.min() and idx.max() < p):
        raise ValueError(f"resample indices must lie in [0, {p})")
    cells = (np.arange(b)[:, None] * p + idx).ravel()  # replicate row, then index
    counts = np.bincount(cells, minlength=b * p).reshape(b, p).astype(np.float64)
    return _weighted_deltas(values, row_mean, counts)


def empirical_draws(matrix: LocalPredictionMatrix, n_replicates: int, seed) -> BootstrapDraws:
    """Resample the local rows with replacement, P draws per replicate."""
    if n_replicates < 1:
        raise ValueError(f"replicate count must be positive, got {n_replicates}")
    p = matrix.partitions
    idx = np.random.default_rng(seed).integers(0, p, size=(n_replicates, p))
    return BootstrapDraws(resample_deltas(matrix.values, matrix.row_mean, idx))


def multiplier_draws(matrix: LocalPredictionMatrix, n_replicates: int, seed) -> BootstrapDraws:
    """Reweight the centred local rows with i.i.d. N(1, 1) weights."""
    if n_replicates < 1:
        raise ValueError(f"replicate count must be positive, got {n_replicates}")
    w = np.random.default_rng(seed).normal(1.0, 1.0, size=(n_replicates, matrix.partitions))
    return BootstrapDraws(_weighted_deltas(matrix.values, matrix.row_mean, w))


def draw(matrix, n_replicates: int, seed, scheme: str) -> BootstrapDraws:
    """Draws of ``scheme``, one of SCHEMES."""
    if scheme == "empirical":
        return empirical_draws(matrix, n_replicates, seed)
    if scheme == "multiplier":
        return multiplier_draws(matrix, n_replicates, seed)
    raise ValueError(f"bootstrap scheme must be one of {SCHEMES}, got {scheme!r}")
