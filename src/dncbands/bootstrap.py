"""Bootstrap replicates of the averaged prediction vector.

Both schemes compute deltas = W @ (V - v_bar) / P, where V is the P x T
matrix of local estimator values, v_bar its pinned row mean and W a
B x P weight matrix: resample counts of P draws with replacement
(empirical) or i.i.d. weights of mean 1 and variance 1 (multiplier).
Centring makes the deltas invariant to shifting every local prediction
by a constant.  A column whose P values are all equal is centred to
exactly zero, so its deltas are exactly zero and calibration flags it
as degenerate.  No kernel is evaluated and the raw data are never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dnc import LocalPredictionMatrix

MULTIPLIER_DISTRIBUTIONS = ("gaussian", "poisson")


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
    return weights @ centered / values.shape[0]


def resample_deltas(values: np.ndarray, row_mean: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Centered resample averages for given row-index draws.

    idx has one row of P indices per replicate; each row becomes the
    count of every index in it, the replicate's weight vector.
    """
    b, p = idx.shape
    counts = np.zeros((b, p))
    np.add.at(counts, (np.arange(b)[:, None], idx), 1.0)
    return _weighted_deltas(values, row_mean, counts)


def empirical_draws(matrix: LocalPredictionMatrix, n_replicates: int, seed) -> BootstrapDraws:
    """Resample the local rows with replacement, P draws per replicate."""
    if n_replicates < 1:
        raise ValueError(f"replicate count must be positive, got {n_replicates}")
    p = matrix.partitions
    idx = np.random.default_rng(seed).integers(0, p, size=(n_replicates, p))
    return BootstrapDraws(resample_deltas(matrix.values, matrix.row_mean, idx))


def multiplier_draws(
    matrix: LocalPredictionMatrix,
    n_replicates: int,
    seed,
    dist: str = "gaussian",
) -> BootstrapDraws:
    """Reweight the centred local rows with i.i.d. weights, mean 1 and variance 1."""
    if n_replicates < 1:
        raise ValueError(f"replicate count must be positive, got {n_replicates}")
    if dist not in MULTIPLIER_DISTRIBUTIONS:
        raise ValueError(
            f"multiplier distribution must be one of {MULTIPLIER_DISTRIBUTIONS}, got {dist!r}"
        )
    rng = np.random.default_rng(seed)
    size = (n_replicates, matrix.partitions)
    if dist == "gaussian":
        w = rng.normal(1.0, 1.0, size=size)
    else:
        w = rng.poisson(1.0, size=size).astype(np.float64)
    return BootstrapDraws(_weighted_deltas(matrix.values, matrix.row_mean, w))

