"""Divide-and-conquer driver: partition, fit per partition, average.

Partition fits are independent pure tasks; the reduction runs in
ascending partition order so serial and threaded executions agree
bitwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas, kernels, krr
from .kernels import KernelSpec, _as_points


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
        raw = np.asarray(self.assignment)
        if raw.shape != (self.total,):
            raise ValueError("assignment length does not match total")
        with np.errstate(invalid="ignore"):  # a nan label casts to garbage, caught below
            a = raw.astype(np.int64, copy=False)
        valid = (a == raw) & (a >= 0) & (a < self.count)
        if not np.all(valid):
            raise ValueError(
                f"assignment labels must be integers in [0, {self.count}), "
                f"got {raw[~valid][0]}"
            )
        sizes = np.bincount(a, minlength=self.count)
        if not np.all(sizes == self.total // self.count):
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
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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

    Row p of the result is predict(fit(subsample p), points), bit for bit.
    Partitions go to ``ordered_map`` in groups of as many n x n Grams as
    fit in one kernel block (``kernels.ROW_BLOCK_ENTRIES`` entries, at
    least one partition), so a group's kernel matrices cost one round of
    short GIL-holding ufunc calls instead of one per partition.  A group
    evaluates its stacked Grams, runs one ``krr.fit`` per partition on
    them and drops them before it evaluates its stacked cross matrices;
    each row is the gemv of ``krr.predict``.  The output is identical for
    any thread count and core count: rows come back in partition order
    and the mean reduces in order.  The pooled fits overlap in their BLAS
    work and in their Choleskys, whose LAPACK calls drop the GIL.  A
    failure raises the lowest failing partition's PartitionFitError.
    """
    if plan.total != sample.size:
        raise ValueError(
            f"plan is for N={plan.total} but the sample has {sample.size} rows"
        )
    count, n = plan.count, plan.total // plan.count
    order = np.concatenate(plan.indices())
    xs = sample.covariates[order].reshape(count, n, -1)
    ys = sample.responses[order].reshape(count, n)
    pts = _as_points(points)
    group = max(1, kernels.ROW_BLOCK_ENTRIES // (n * n))

    def run_group(lo):
        stack = xs[lo : lo + group]
        grams = krr.gram_matrix(kernel, stack)
        fits = []
        for p in range(lo, lo + len(stack)):
            try:
                fits.append(krr.fit(krr.Sample(xs[p], ys[p]), kernel, rho, gram=grams[p - lo]))
            except Exception as exc:  # tagged with the partition id
                raise PartitionFitError(p, exc) from exc
        del grams  # so a worker never holds a Gram and a cross block at once
        cross = krr.cross_matrix(kernel, pts, stack)
        return [kx @ f.dual_weights for kx, f in zip(cross, fits)]

    groups = ordered_map(run_group, range(0, count, group), threads)
    return LocalPredictionMatrix.from_values(np.array([row for rows in groups for row in rows]))
