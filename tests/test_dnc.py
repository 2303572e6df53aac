import math

import numpy as np
import pytest

from dncbands import _blas, dnc
from dncbands.dnc import (
    LocalPredictionMatrix,
    PartitionFitError,
    PartitionPlan,
    average,
    fit_all_partitions,
    make_partition_plan,
)
from dncbands.kernels import KernelSpec
from dncbands.krr import Sample, fit, predict
from test_kernels import closed_form_profile


def test_single_partition_plan():
    plan = make_partition_plan(4, 1, seed=0)
    assert np.array_equal(plan.assignment, np.zeros(4, dtype=np.int64))
    assert [list(ix) for ix in plan.indices()] == [[0, 1, 2, 3]]


def test_singleton_partitions_are_a_permutation():
    plan = make_partition_plan(4, 4, seed=1)
    assert sorted(plan.assignment.tolist()) == [0, 1, 2, 3]
    assert all(len(ix) == 1 for ix in plan.indices())


def test_divisibility_error_states_both_values():
    with pytest.raises(ValueError, match=r"P does not divide N.*P=4.*N=6"):
        make_partition_plan(6, 4, seed=0)


def test_plan_deterministic_given_seed():
    a = make_partition_plan(64, 8, seed=123)
    b = make_partition_plan(64, 8, seed=123)
    c = make_partition_plan(64, 8, seed=124)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)


def test_plan_always_balanced():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.integers(1, 9))
        n = p * int(rng.integers(1, 13))
        plan = make_partition_plan(n, p, seed=int(rng.integers(1 << 30)))
        sizes = np.bincount(plan.assignment, minlength=p)
        assert np.all(sizes == n // p)


def test_plan_validation_rejects_unbalanced():
    with pytest.raises(ValueError):
        PartitionPlan(4, 2, np.array([0, 0, 0, 1]))


@pytest.mark.parametrize("labels", [
    [0.2, 0.7, 1.3, 1.9],  # was truncated to 0, 0, 1, 1
    [0, 0, 1, np.nan],
    [0, 1, 1, -1],
    [0, 0, 1, 5],
    [0, 0, 1, 2],
], ids=["fractional", "nan", "negative", "five", "two"])
def test_plan_labels_must_be_integers_in_range(labels):
    with pytest.raises(ValueError, match=r"integers in \[0, 2\)"):
        PartitionPlan(4, 2, labels)


def test_plan_accepts_integral_labels_of_any_dtype():
    for labels in ([0, 1, 1, 0], np.array([0.0, 1.0, 1.0, 0.0]), np.array([0, 1, 1, 0], np.int8)):
        plan = PartitionPlan(4, 2, labels)
        assert plan.assignment.dtype == np.int64
        assert plan.assignment.tolist() == [0, 1, 1, 0]


def sample_for(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 1))
    y = np.sin(2 * np.pi * x[:, 0]) + rng.normal(size=n)
    return Sample(x, y)


def test_single_partition_equals_plain_krr():
    sample = sample_for(16, seed=2)
    spec = KernelSpec()
    points = np.linspace(0, 1, 6).reshape(-1, 1)
    plan = make_partition_plan(16, 1, seed=0)
    matrix = fit_all_partitions(sample, plan, spec, 1e-3, points)
    direct = predict(fit(sample, spec, 1e-3), points)
    assert matrix.values.shape == (1, 6)
    assert np.allclose(matrix.values[0], direct, rtol=1e-12)
    assert np.allclose(matrix.row_mean, direct, rtol=1e-12)


def test_duplicated_sample_gives_identical_rows():
    half = sample_for(6, seed=3)
    doubled = Sample(
        np.vstack([half.covariates, half.covariates]),
        np.concatenate([half.responses, half.responses]),
    )
    plan = PartitionPlan(12, 2, np.array([0] * 6 + [1] * 6))
    matrix = fit_all_partitions(doubled, plan, KernelSpec(), 1e-2, np.linspace(0, 1, 4))
    assert np.array_equal(matrix.values[0], matrix.values[1])
    assert np.array_equal(matrix.row_mean, matrix.values[0])


def test_two_partitions_match_scalar_reference_loop():
    sample = sample_for(6, seed=4)
    spec = KernelSpec(nu=2.5, lengthscale=0.5)
    rho = 0.05
    points = np.array([[0.2], [0.8]])
    plan = make_partition_plan(6, 2, seed=9)
    matrix = fit_all_partitions(sample, plan, spec, rho, points)

    # reference: per-partition dual solve and prediction via scalar loops
    reference_rows = []
    for part in plan.indices():
        xs = sample.covariates[part]
        ys = sample.responses[part]
        n = len(part)
        k = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                k[i, j] = closed_form_profile(spec, np.linalg.norm(xs[i] - xs[j]))
        alpha = np.linalg.solve(k + n * rho * np.eye(n), ys)
        row = []
        for t in range(2):
            row.append(sum(
                alpha[i] * closed_form_profile(spec, np.linalg.norm(points[t] - xs[i]))
                for i in range(n)
            ))
        reference_rows.append(row)
    reference = np.asarray(reference_rows)
    assert np.allclose(matrix.values, reference, rtol=1e-10)
    assert np.allclose(matrix.row_mean, reference.mean(axis=0), rtol=1e-12)


def test_thread_count_does_not_change_bits():
    # n = 256 rows per partition is where a threaded Cholesky starts to round
    # differently from one thread, so the serial path must pin BLAS too
    for n, p, threads in ((64, 8, 4), (1024, 4, 2)):
        sample = sample_for(n, seed=6)
        plan = make_partition_plan(n, p, seed=1)
        points = np.linspace(0, 1, 10)
        serial = fit_all_partitions(sample, plan, KernelSpec(), 1e-3, points, threads=1)
        threaded = fit_all_partitions(sample, plan, KernelSpec(), 1e-3, points, threads=threads)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.row_mean, threaded.row_mean)


def per_partition_rows(sample, plan, spec, rho, points):
    """predict(fit(subsample p)) for each partition, one at a time.

    BLAS runs one thread, as in every pooled or serial fit: from n = 256 on
    a threaded Cholesky rounds differently.
    """
    with _blas.one_thread():
        return np.array([
            predict(fit(Sample(sample.covariates[idx], sample.responses[idx]), spec, rho), points)
            for idx in plan.indices()
        ])


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 3.5])
def test_grouped_fits_equal_per_partition_fits_bit_for_bit(nu):
    spec = KernelSpec(nu=nu, lengthscale=0.3)
    # (n, P, d, T): Grams of several partitions per kernel block, the last
    # group short (n = 3, 16, 64), one partition per block (256), rows of
    # one partition (300), two covariates, and cross matrices whose T * n
    # exceeds one block (64 x 1100, 300 x 300)
    for n, p, d, t in ((3, 7, 1, 5), (16, 260, 1, 9), (64, 20, 1, 33), (256, 3, 1, 17),
                       (300, 2, 1, 300), (64, 5, 2, 12), (64, 3, 1, 1100)):
        rng = np.random.default_rng(n + p + d)
        x = rng.uniform(0, 1, (n * p, d))
        sample = Sample(x, np.sin(2 * np.pi * x[:, 0]) + rng.normal(size=n * p))
        plan = make_partition_plan(n * p, p, seed=n)
        points = rng.uniform(0, 1, (t, d))
        want = per_partition_rows(sample, plan, spec, 1e-3, points)
        for threads in (1, 2):
            got = fit_all_partitions(sample, plan, spec, 1e-3, points, threads=threads)
            assert got.values.tobytes() == want.tobytes(), (n, p, d, t, threads)


def test_non_finite_points_are_rejected_before_any_fit(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("no partition may be fitted")

    monkeypatch.setattr(dnc.krr, "fit", no_fit)
    sample = sample_for(8)
    with pytest.raises(ValueError, match="non-finite"):
        fit_all_partitions(sample, make_partition_plan(8, 2, seed=0), KernelSpec(), 1e-3,
                           [0.5, np.nan])


def test_average_identical_rows():
    v = np.array([0.3, -1.2, 7.0])
    assert np.allclose(average(np.tile(v, (5, 1))), v, rtol=1e-15)


def test_average_opposite_rows_cancel():
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(average(np.vstack([v, -v])), np.zeros(3))


def test_average_matches_fsum_oracle():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(3, 2))
    got = average(m)
    for t in range(2):
        exact = math.fsum(m[:, t]) / 3.0
        assert abs(got[t] - exact) <= 1e-15


def test_average_is_the_in_order_row_sum():
    # pins the bits of an explicit in-order loop; numpy's sum(axis=0) rounds
    # differently when the partition axis is contiguous (T = 1, Fortran order)
    rng = np.random.default_rng(10)
    for p, t in ((1, 5), (3, 7), (9, 1), (64, 512), (4096, 1), (4096, 512)):
        m = rng.normal(size=(p, t)) * 10.0 ** rng.integers(-8, 9, size=(p, 1))
        for v in (m, np.asfortranarray(m), m[:, : (t + 1) // 2]):
            acc = v[0].copy()
            for row in v[1:]:
                acc += row
            assert average(v).tobytes() == (acc / p).tobytes()


def test_average_linearity():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 4))
    assert np.allclose(average(3.5 * m), 3.5 * average(m), rtol=1e-12)


def test_partition_failure_aborts_with_id(monkeypatch):
    # the lowest failing partition is reported, serial or pooled
    real_fit = dnc.krr.fit
    for n, count, failing in ((8, 2, {1}), (16, 4, {1, 3})):
        sample = sample_for(n, seed=10)
        plan = make_partition_plan(n, count, seed=0)
        owner = {
            float(sample.covariates[i, 0]): p for p, idx in enumerate(plan.indices()) for i in idx
        }

        def failing_fit(sub, kernel, rho, gram=None):
            if owner[float(sub.covariates[0, 0])] in failing:
                raise RuntimeError("synthetic failure")
            return real_fit(sub, kernel, rho, gram=gram)

        monkeypatch.setattr(dnc.krr, "fit", failing_fit)
        for threads in (1, 2):
            with pytest.raises(PartitionFitError, match="partition 1") as caught:
                fit_all_partitions(
                    sample, plan, KernelSpec(), 1e-3, np.linspace(0, 1, 3), threads=threads
                )
            assert caught.value.partition == 1


def test_failure_inside_a_group_reports_its_lowest_partition(monkeypatch):
    # n = 16: 256 partitions share a kernel block, so 3 and 5 are in one group;
    # n = 64: groups of 16, so 20 and 37 are in the second and third
    real_fit = dnc.krr.fit
    for n, count, failing, lowest in ((16, 8, {5, 3}, 3), (64, 40, {37, 20}, 20)):
        sample = sample_for(n * count, seed=11)
        plan = make_partition_plan(n * count, count, seed=2)
        owner = {
            float(sample.covariates[i, 0]): p for p, idx in enumerate(plan.indices()) for i in idx
        }
        fitted = []

        def failing_fit(sub, kernel, rho, gram=None):
            p = owner[float(sub.covariates[0, 0])]
            if p in failing:
                raise RuntimeError("synthetic failure")
            fitted.append(p)
            return real_fit(sub, kernel, rho, gram=gram)

        monkeypatch.setattr(dnc.krr, "fit", failing_fit)
        for threads in (1, 2):
            with pytest.raises(PartitionFitError, match=f"partition {lowest}:") as caught:
                fit_all_partitions(
                    sample, plan, KernelSpec(), 1e-3, np.linspace(0, 1, 3), threads=threads
                )
            assert caught.value.partition == lowest
            assert set(range(lowest)) <= set(fitted)


def test_local_prediction_matrix_shape_validation():
    with pytest.raises(ValueError):
        LocalPredictionMatrix.from_values(np.empty((0, 3)))
