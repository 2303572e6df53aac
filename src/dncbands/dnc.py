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


def fit_all_partitions(
    sample: krr.Sample,
    plan: PartitionPlan,
    kernel: KernelSpec,
    rho: float,
    points,
    threads: int = 1,
) -> LocalPredictionMatrix:
    """Fit the base learner on every partition, evaluate at the points.

    Row p of the result is predict(fit(subsample p), points).  The output
    is identical for any thread count and core count: partition subsets
    are read-only, rows come back in partition order, the mean reduces in
    order, and BLAS runs one thread on the serial and pooled paths alike
    (a threaded Cholesky rounds differently from one thread).  The pooled
    fits overlap in their BLAS work and in their Choleskys, whose LAPACK
    calls drop the GIL.  A failure raises the lowest failing partition's
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

    with _blas.one_thread():
        if threads > 1 and plan.count > 1:
            with ThreadPoolExecutor(max_workers=min(threads, plan.count)) as pool:
                rows = list(pool.map(run_one, range(plan.count)))
        else:
            rows = [run_one(p) for p in range(plan.count)]
    return LocalPredictionMatrix.from_values(np.array(rows))
