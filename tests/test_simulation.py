import numpy as np
import pytest

from dncbands import bootstrap, dnc
from dncbands.bands import band_intervals, calibrate, covers
from dncbands.bootstrap import BootstrapDraws, empirical_draws
from dncbands.dnc import fit_all_partitions, make_partition_plan
from dncbands.kernels import KernelSpec
from dncbands.krr import Sample, penalty_schedule
from dncbands.simulation import (
    DgpSpec,
    coverage_ci99,
    generate_trial,
    partition_bound_check,
    power_of_two_sqrt,
    rate_study,
    run_coverage_cell,
    run_coverage_grid,
)

DESK_N = 2**12


def test_noise_variance_values():
    assert DgpSpec.noise_variance(0.5) == 1.0
    assert DgpSpec.noise_variance(0.0) == pytest.approx(np.exp(2.0), rel=1e-15)
    assert DgpSpec.noise_variance(1.0) == pytest.approx(np.exp(2.0), rel=1e-15)


def test_truth_uses_literal_constant():
    dgp = DgpSpec(16)
    value = float(dgp.f_star(0.25))
    # sin(3.14 / 2), not sin(pi / 2) = 1
    assert value == pytest.approx(0.9999996829318346, rel=1e-12)
    assert value != 1.0


def test_table_true_function():
    dgp = DgpSpec(16, true_function="table", table=((0.0, 0.0), (0.5, 2.0), (1.0, 0.0)))
    assert dgp.f_star(0.25) == pytest.approx(1.0)
    assert dgp.f_star(0.5) == 2.0
    dgp = DgpSpec(16, true_function="table", table=((0.0, 1.0), (0.5, 2.0), (1.0, 0.0)))
    assert np.array_equal(dgp.f_star([0.0, 0.25, 0.5, 0.75, 1.0]), [1.0, 1.5, 2.0, 1.0, 0.0])


def test_table_rules():
    # np.interp assumes increasing x: the first table below would give the
    # truth 0, 0, 0, 2, 2 at x = 0, .25, .5, .75, 1, not 1, 1.5, 2, 1, 0
    bad = {
        "strictly increasing": (((1.0, 0.0), (0.0, 1.0), (0.5, 2.0)), ((0.0, 1.0), (0.0, 2.0))),
        "at least two": ((), ((0.0, 1.0),), ((0.0, 1.0, 2.0), (1.0, 0.0, 3.0))),
        "finite": (((0.0, np.nan), (1.0, 0.0)), ((0.0, 1.0), (np.inf, 0.0))),
    }
    for message, tables in bad.items():
        for table in tables:
            with pytest.raises(ValueError, match=message):
                DgpSpec(16, true_function="table", table=table)


def test_generate_trial_shapes_and_determinism():
    dgp = DgpSpec(128)
    s1, p1, t1 = generate_trial(dgp, 9, seed=44)
    s2, p2, t2 = generate_trial(dgp, 9, seed=44)
    s3, p3, _ = generate_trial(dgp, 9, seed=45)
    assert s1.covariates.shape == (128, 1) and p1.shape == (9, 1) and t1.shape == (9,)
    assert np.array_equal(s1.covariates, s2.covariates)
    assert np.array_equal(s1.responses, s2.responses)
    assert np.array_equal(p1, p2) and np.array_equal(t1, t2)
    assert not np.array_equal(p1, p3)
    assert np.array_equal(t1, dgp.f_star(p1[:, 0]))


def test_noise_conditional_mean_zero():
    dgp = DgpSpec(10**6)
    sample, _, _ = generate_trial(dgp, 1, seed=7)
    eps = sample.responses - dgp.f_star(sample.covariates[:, 0])
    se = eps.std() / np.sqrt(len(eps))
    assert abs(eps.mean()) < 4 * se


def test_heteroscedastic_variance_profile():
    dgp = DgpSpec(10**6)
    sample, _, _ = generate_trial(dgp, 1, seed=8)
    x = sample.covariates[:, 0]
    eps = sample.responses - dgp.f_star(x)
    for center in (0.0, 0.25, 0.5):
        mask = np.abs(np.abs(x - 0.5) - center) < 0.005
        assert mask.sum() > 5000
        assert eps[mask].var() == pytest.approx(np.exp(4 * center), rel=0.05)


def test_run_coverage_cell_zero_trials():
    assert run_coverage_cell(DgpSpec(64), 4, 2, 0.05, 100, 0, seed=0) == (0, 0)


def test_run_coverage_cell_divisibility_checked_first():
    with pytest.raises(ValueError, match="P does not divide N"):
        run_coverage_cell(DgpSpec(100), 64, 2, 0.05, 100, 5, seed=0)


def test_zero_noise_bands_have_positive_width():
    # local fits differ across partitions through their covariates alone
    dgp = DgpSpec(DESK_N)
    rho = penalty_schedule(DESK_N, 8.0, 0.5)
    root = np.random.SeedSequence(17)
    s_data, s_plan, s_boot = root.spawn(3)
    noisy, pts, _ = generate_trial(dgp, 8, s_data)
    sample = Sample(noisy.covariates, dgp.f_star(noisy.covariates[:, 0]))
    plan = make_partition_plan(DESK_N, 64, s_plan)
    matrix = fit_all_partitions(sample, plan, KernelSpec(lengthscale=0.2), rho, pts)
    assert np.all(matrix.values.std(axis=0) > 0)
    bands = calibrate(empirical_draws(matrix, 1000, s_boot), 0.05)
    assert np.all(bands.upper - bands.lower > 0)
    assert not np.any(bands.degenerate)


def test_run_coverage_cell_reproducible_and_thread_invariant():
    dgp = DgpSpec(256)
    kwargs = dict(
        alpha=0.1, n_replicates=200, trials=8, seed=77,
        kernel=KernelSpec(lengthscale=0.2),
    )
    a = run_coverage_cell(dgp, 8, 4, **kwargs)
    b = run_coverage_cell(dgp, 8, 4, **kwargs)
    c = run_coverage_cell(dgp, 8, 4, threads=3, **kwargs)
    assert a == b == c


def test_coverage_ci99_boundary_cases():
    lo, hi = coverage_ci99(100, 100)
    assert hi == 1.0
    assert lo == pytest.approx(0.005 ** (1.0 / 100.0), rel=1e-12)
    lo0, hi0 = coverage_ci99(0, 100)
    assert lo0 == 0.0
    assert hi0 == pytest.approx(1.0 - 0.005 ** (1.0 / 100.0), rel=1e-12)


def test_coverage_ci99_reference_values():
    # frozen from an independent beta-quantile computation
    lo, hi = coverage_ci99(950, 1000)
    assert lo == pytest.approx(0.9294956247985419, rel=1e-10)
    assert hi == pytest.approx(0.9660733372897797, rel=1e-10)
    assert lo < 0.95 < hi


def test_coverage_ci99_domain_errors():
    with pytest.raises(ValueError):
        coverage_ci99(0, 0)
    with pytest.raises(ValueError):
        coverage_ci99(5, 4)


def test_partition_bound_reference_value():
    # 2^(16 * 7 / 9)
    assert partition_bound_check(2**16, 8.0, 0.5) == pytest.approx(
        2.0 ** (112.0 / 9.0), rel=1e-12
    )
    # at N = 2^16 the admissible-partition bound sits between 2^12 and 2^13
    assert 2**12 < partition_bound_check(2**16, 8.0, 0.5) < 2**13


def test_partition_bound_limits():
    b = 8.0
    assert partition_bound_check(1, b, 0.75) == 1.0
    near_zero_exponent = partition_bound_check(10**6, b, 1.0 / (2 * b))
    assert near_zero_exponent == pytest.approx(1.0)
    with pytest.raises(ValueError):
        partition_bound_check(100, b, 0.01)


def test_power_of_two_sqrt():
    assert power_of_two_sqrt(2**10) == 2**5
    assert power_of_two_sqrt(2**11) == 2**6
    assert power_of_two_sqrt(2**12) == 2**6
    assert power_of_two_sqrt(2**13) == 2**7
    assert power_of_two_sqrt(2**14) == 2**7


def test_rate_study_small_run_structure():
    result = rate_study(
        [256, 512], 0.5, reps=2, seed=6, kernel=KernelSpec(lengthscale=0.2)
    )
    assert result.sizes == [256, 512]
    assert result.partition_counts == [16, 32]
    assert all(e > 0 for e in result.median_sup_errors)
    assert np.isfinite(result.slope)
    # one N leaves the slope undefined
    single = rate_study([256], 0.5, reps=2, seed=6, kernel=KernelSpec(lengthscale=0.2))
    assert single.partition_counts == [16]
    assert np.isnan(single.slope)


def test_coverage_grid_rejects_bad_cells():
    with pytest.raises(ValueError, match="do not divide"):
        run_coverage_grid(DgpSpec(100), (8, 7), (2,), 0.1, 50, 2, 1)
    # a repeated T would report the same shared draws twice as two cells
    with pytest.raises(ValueError, match="grid_t has repeated values"):
        run_coverage_grid(DgpSpec(64), (4,), (2, 2), 0.1, 50, 2, 1)
    with pytest.raises(ValueError, match="grid_p has repeated values"):
        run_coverage_grid(DgpSpec(64), (4, 8, 4), (2,), 0.1, 50, 2, 1)


GRID_KW = dict(alpha=0.5, n_replicates=200, trials=6, kernel=KernelSpec(lengthscale=0.2))


def test_single_t_grid_rows_are_coverage_cells():
    dgp = DgpSpec(256)
    grid_p = (4, 8, 16)
    report = run_coverage_grid(dgp, grid_p, (4,), master_seed=31, **GRID_KW)
    row_seeds = np.random.SeedSequence(31).spawn(len(grid_p))
    for cell, p, row_seed in zip(report.cells, grid_p, row_seeds):
        assert (cell.partitions, cell.points) == (p, 4)
        assert (cell.hits, cell.trials) == run_coverage_cell(dgp, p, 4, seed=row_seed, **GRID_KW)


def test_grid_fits_and_bootstraps_once_per_row_trial(monkeypatch):
    calls = {"fit": 0, "boot": 0}
    fit, boot = dnc.fit_all_partitions, bootstrap.empirical_draws

    def counted_fit(*args, **kwargs):
        calls["fit"] += 1
        return fit(*args, **kwargs)

    def counted_boot(*args, **kwargs):
        calls["boot"] += 1
        return boot(*args, **kwargs)

    monkeypatch.setattr(dnc, "fit_all_partitions", counted_fit)
    monkeypatch.setattr(bootstrap, "empirical_draws", counted_boot)
    report = run_coverage_grid(DgpSpec(64), (4, 8), (2, 3, 4), 0.1, 100, 4, 5)
    assert len(report.cells) == 6
    assert calls == {"fit": 2 * 4, "boot": 2 * 4}


def test_multi_t_cells_calibrate_the_first_columns_of_one_trial():
    dgp = DgpSpec(256)
    kernel = GRID_KW["kernel"]
    report = run_coverage_grid(dgp, (8,), (2, 8), master_seed=23, **GRID_KW)
    rho = penalty_schedule(dgp.n, kernel.decay_exponent(1), 0.5)
    row_seed = np.random.SeedSequence(23).spawn(1)[0]
    hits = {2: 0, 8: 0}
    for trial_seed in row_seed.spawn(GRID_KW["trials"]):
        s_data, s_plan, s_boot = trial_seed.spawn(3)
        sample, pts, truth = generate_trial(dgp, 8, s_data)
        plan = make_partition_plan(dgp.n, 8, s_plan)
        matrix = fit_all_partitions(sample, plan, kernel, rho, pts)
        deltas = empirical_draws(matrix, GRID_KW["n_replicates"], s_boot).deltas
        for t in hits:
            bands = calibrate(BootstrapDraws(deltas[:, :t]), GRID_KW["alpha"])
            hits[t] += covers(band_intervals(bands, matrix.row_mean[:t]), truth[:t])
    assert [(c.points, c.hits) for c in report.cells] == [(2, hits[2]), (8, hits[8])]


def test_coverage_grid_thread_invariant():
    args = (DgpSpec(256), (4, 8), (2, 5, 3))
    serial = run_coverage_grid(*args, master_seed=13, **GRID_KW)
    pooled = run_coverage_grid(*args, master_seed=13, threads=3, **GRID_KW)
    assert serial.cells == pooled.cells
