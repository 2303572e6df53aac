"""Divide-and-conquer driver: partition, fit per partition, average.

Partition fits are independent pure tasks; the reduction runs in
ascending partition order so serial and threaded executions agree
bitwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas, krr
from .kernels import KernelSpec


class PartitionFitError(RuntimeError):
    """A partition's base fit failed; the whole run is aborted."""

    def __init__(self, partition, cause):
        super().__init__(f"fit failed on partition {partition}: {cause}")
        self.partition = partition


@dataclass(frozen=True)
class PartitionPlan:
    """Balanced assignment of N sample indices to P partitions."""

    total: int
    count: int
    assignment: np.ndarray  # (N,) ints in [0, P)

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.shape != (self.total,):
            raise ValueError("assignment length does not match total")
        sizes = np.bincount(a, minlength=self.count)
        if len(sizes) != self.count or not np.all(sizes == self.total // self.count):
            raise ValueError("assignment is not a balanced partition")
        object.__setattr__(self, "assignment", a)

    def indices(self) -> list[np.ndarray]:
        """Per-partition index arrays, in ascending partition order."""
        order = np.argsort(self.assignment, kind="stable")
        return np.split(order, self.count)


def make_partition_plan(n_total: int, n_partitions: int, seed) -> PartitionPlan:
    """Uniformly random balanced partition of [N] into P blocks of N/P."""
    if n_partitions < 1:
        raise ValueError(f"P must be at least 1, got {n_partitions}")
    if n_total % n_partitions != 0:
        raise ValueError(f"P does not divide N (P={n_partitions}, N={n_total})")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_total)
    size = n_total // n_partitions
    assignment = np.empty(n_total, dtype=np.int64)
    assignment[perm] = np.arange(n_total) // size
    return PartitionPlan(n_total, n_partitions, assignment)


def average(values: np.ndarray) -> np.ndarray:
    """Row mean accumulated in fixed ascending-partition order."""
    v = np.asarray(values, dtype=np.float64)
    acc = v[0].copy()
    for p in range(1, v.shape[0]):
        acc += v[p]
    return acc / v.shape[0]


@dataclass(frozen=True)
class LocalPredictionMatrix:
    """P x T matrix of per-partition predictions plus their pinned mean."""

    values: np.ndarray  # (P, T)
    row_mean: np.ndarray  # (T,)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "LocalPredictionMatrix":
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be a (P, T) matrix with P >= 1")
        return cls(v, average(v))

    @property
    def partitions(self) -> int:
        return self.values.shape[0]

    @property
    def points(self) -> int:
        return self.values.shape[1]


def ordered_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on min(threads, len(items)) workers, in order.

    The package's one worker pool, serial when that is one worker.  BLAS
    runs one thread on both paths (see ``_blas``), so a task rounds the
    same whichever path runs it.
    """
    with _blas.one_thread():
        workers = min(threads, len(items))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        return [fn(x) for x in items]


def fit_all_partitions(
    sample: krr.Sample,
    plan: PartitionPlan,
    kernel: KernelSpec,
    rho: float,
    points,
    threads: int = 1,
) -> LocalPredictionMatrix:
    """Fit the base learner on every partition, evaluate at the points.

    Row p of the result is predict(fit(subsample p), points).  The fits
    run through ``ordered_map``, so the output is identical for any thread
    count and core count: partition subsets are read-only, rows come back
    in partition order and the mean reduces in order.  The pooled fits
    overlap in their BLAS work and in their Choleskys, whose LAPACK calls
    drop the GIL.  A failure raises the lowest failing partition's
    PartitionFitError.
    """
    if plan.total != sample.size:
        raise ValueError(
            f"plan is for N={plan.total} but the sample has {sample.size} rows"
        )
    parts = plan.indices()
    pts = np.asarray(points, dtype=np.float64)

    def run_one(p):
        try:
            return krr.predict(krr.fit(sample.subset(parts[p]), kernel, rho), pts)
        except Exception as exc:  # tagged with the partition id
            raise PartitionFitError(p, exc) from exc

    rows = ordered_map(run_one, range(plan.count), threads)
    return LocalPredictionMatrix.from_values(np.array(rows))
