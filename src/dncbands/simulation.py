"""Monte Carlo harness: synthetic data, coverage grid, rate study.

The data-generating process is one-dimensional: covariates and
prediction points uniform on [0, 1], Gaussian noise whose variance
exp(4 |x - 1/2|) depends on the covariate, and a sine truth whose
frequency uses the literal constant 3.14 rather than pi (widths of
order 3e-7 separate the two at the quarter-period; the literal is kept
deliberately and flagged in the README).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from . import _blas
from . import bands as bands_mod
from . import bootstrap as bootstrap_mod
from . import dnc, krr
from .kernels import KernelSpec

SIN_FREQUENCY = 2.0 * 3.14  # literal 3.14, not math.pi
RATE_GRID_SIZE = 512  # uniform points of the rate study's sup-norm grid on [0, 1]


def _as_seedseq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class DgpSpec:
    """Synthetic heteroscedastic regression setup on [0, 1]."""

    n: int
    true_function: str = "sin2pix"
    # (x, f) pairs of a piecewise-linear truth, used when true_function ==
    # "table": at least two, finite, x strictly increasing; the truth is
    # held constant beyond the first and last x
    table: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample size n must be positive, got {self.n}")
        if self.true_function not in ("sin2pix", "table"):
            raise ValueError(f"true function must be sin2pix or table, got {self.true_function!r}")
        if self.true_function == "table":
            pairs = np.asarray(self.table, dtype=np.float64)
            if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
                raise ValueError(f"table needs at least two (x, f) pairs, got {self.table!r}")
            if not np.all(np.isfinite(pairs)):
                raise ValueError(f"table values must be finite, got {self.table!r}")
            if not np.all(np.diff(pairs[:, 0]) > 0):
                raise ValueError(f"table x values must be strictly increasing, got {self.table!r}")

    def f_star(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.true_function == "sin2pix":
            return np.sin(SIN_FREQUENCY * x)
        xs, fs = np.asarray(self.table, dtype=np.float64).T
        return np.interp(x, xs, fs)

    @staticmethod
    def noise_variance(x) -> np.ndarray:
        return np.exp(4.0 * np.abs(np.asarray(x, dtype=np.float64) - 0.5))


def generate_trial(dgp: DgpSpec, n_points: int, seed):
    """One synthetic trial: (sample, prediction points, true values).

    Draw order is pinned (covariates, prediction points, noise) so a
    seed identifies the trial exactly.
    """
    if n_points < 1:
        raise ValueError(f"prediction set size must be positive, got {n_points}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(dgp.n, 1))
    x_tilde = rng.uniform(0.0, 1.0, size=(n_points, 1))
    noise = rng.normal(0.0, 1.0, size=dgp.n) * np.sqrt(DgpSpec.noise_variance(x[:, 0]))
    y = dgp.f_star(x[:, 0]) + noise
    truth = dgp.f_star(x_tilde[:, 0])
    return krr.Sample(x, y), x_tilde, truth


def _ordered_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a pool of ``threads`` workers when threads > 1."""
    if threads > 1:
        # looked up at call time: the benchmark tracer rebinds
        # simulation.ThreadPoolExecutor by name
        with _blas.one_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _trial_matrix(dgp, n_points, n_partitions, kernel, rho, trial_seed):
    """Draw one trial and fit it: (local matrix, truth, bootstrap seed).

    The trial seed spawns the data, plan and bootstrap seeds in that
    order, so every caller re-deriving a trial gets the same one.
    """
    s_data, s_plan, s_boot = trial_seed.spawn(3)
    sample, x_tilde, truth = generate_trial(dgp, n_points, s_data)
    plan = dnc.make_partition_plan(dgp.n, n_partitions, s_plan)
    matrix = dnc.fit_all_partitions(sample, plan, kernel, rho, x_tilde)
    return matrix, truth, s_boot


def _band_trial(dgp, points, n_partitions, kernel, rho, alpha, n_replicates,
                scheme, multiplier, trial_seed):
    """Run the pipeline once at max(points) prediction points.

    Each T in points is calibrated on the first T columns of the shared
    deltas, row mean and truth.  Returns one covered flag per T.
    """
    matrix, truth, s_boot = _trial_matrix(
        dgp, max(points), n_partitions, kernel, rho, trial_seed
    )
    if scheme == "empirical":
        draws = bootstrap_mod.empirical_draws(matrix, n_replicates, s_boot)
    else:
        draws = bootstrap_mod.multiplier_draws(matrix, n_replicates, s_boot, multiplier)
    calibrated = bands_mod.calibrate_prefixes(draws, alpha, points)
    return tuple(
        bands_mod.covers(bands_mod.band_intervals(cal, matrix.row_mean[:t]), truth[:t])
        for t, cal in zip(points, calibrated)
    )


def run_coverage_row(
    dgp: DgpSpec,
    n_partitions: int,
    points,
    alpha: float,
    n_replicates: int,
    trials: int,
    seed,
    kernel: KernelSpec = KernelSpec(),
    r_prime: float = 0.5,
    schedule_c: float = 1.0,
    scheme: str = "empirical",
    multiplier: str = "gaussian",
    threads: int = 1,
) -> tuple[tuple[int, ...], int]:
    """Monte Carlo hit counts for one P and every T in points.

    alpha is the band miscoverage level (0.05 for nominal 95% bands).
    Each trial draws fresh data and max(points) prediction points, fits
    the divide-and-conquer estimator once with rho from the penalty
    schedule at the full sample size, bootstraps once, and checks for
    each T whether the truth lands strictly inside the first T
    intervals.  The T cells therefore share their trials (paired).
    """
    if dgp.n % n_partitions != 0:
        raise ValueError(
            f"P does not divide N (P={n_partitions}, N={dgp.n})"
        )
    if trials == 0:
        return (0,) * len(points), 0
    rho = krr.penalty_schedule(dgp.n, kernel.decay_exponent(1), r_prime, schedule_c)

    def one(ts):
        return _band_trial(
            dgp, points, n_partitions, kernel, rho, alpha,
            n_replicates, scheme, multiplier, ts,
        )

    flags = _ordered_map(one, _as_seedseq(seed).spawn(trials), threads)
    return tuple(int(sum(col)) for col in zip(*flags)), trials


def run_coverage_cell(
    dgp: DgpSpec,
    n_partitions: int,
    n_points: int,
    alpha: float,
    n_replicates: int,
    trials: int,
    seed,
    **options,
) -> tuple[int, int]:
    """Monte Carlo hit count for one (P, T) configuration.

    The row of ``run_coverage_row`` with the single T ``(n_points,)``;
    ``options`` are its keyword options.
    """
    (hits,), done = run_coverage_row(
        dgp, n_partitions, (n_points,), alpha, n_replicates, trials, seed, **options
    )
    return hits, done


def coverage_ci99(hits: int, trials: int) -> tuple[float, float]:
    """Exact Clopper-Pearson 99% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not (0 <= hits <= trials):
        raise ValueError(f"hits {hits} outside [0, {trials}]")
    if hits == 0:
        lo = 0.0
    else:
        lo = float(beta_dist.ppf(0.005, hits, trials - hits + 1))
    if hits == trials:
        hi = 1.0
    else:
        hi = float(beta_dist.ppf(0.995, hits + 1, trials - hits))
    return lo, hi


@dataclass(frozen=True)
class CoverageCell:
    partitions: int
    points: int
    trials: int
    hits: int

    @property
    def coverage(self) -> float:
        return self.hits / self.trials if self.trials else float("nan")

    @property
    def ci99(self) -> tuple[float, float]:
        return coverage_ci99(self.hits, self.trials)


@dataclass(frozen=True)
class CoverageReport:
    cells: list[CoverageCell]


def check_grid(n_total: int, grid_p, grid_t) -> None:
    """Raise ValueError unless the grid can run: no repeats, every P divides N."""
    for name, values in (("grid_p", grid_p), ("grid_t", grid_t)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} has repeated values, got {tuple(values)}")
    offenders = [p for p in grid_p if n_total % p != 0]
    if offenders:
        raise ValueError(
            f"partition counts {offenders} do not divide N={n_total}"
        )


def run_coverage_grid(
    dgp: DgpSpec,
    grid_p,
    grid_t,
    alpha: float,
    n_replicates: int,
    trials: int,
    master_seed: int,
    **options,
) -> CoverageReport:
    """Run the grid one P row at a time; the T cells of a row share trials.

    Row i is seeded by SeedSequence(master_seed).spawn(len(grid_p))[i],
    which spawns the trial seeds.  ``options`` are the keyword options of
    ``run_coverage_row``.
    """
    check_grid(dgp.n, grid_p, grid_t)
    row_seeds = np.random.SeedSequence(master_seed).spawn(len(grid_p))
    cells = []
    for p, row_seed in zip(grid_p, row_seeds):
        hits, done = run_coverage_row(
            dgp, p, tuple(grid_t), alpha, n_replicates, trials, row_seed, **options
        )
        cells.extend(CoverageCell(p, t, done, h) for t, h in zip(grid_t, hits))
    return CoverageReport(cells)


def partition_bound_check(n_total: int, b: float, r_prime: float) -> float:
    """Largest partition count of the averaging regime, N^((2br'-1)/(2br'+1)).

    Accepts any r' in [1/(2b), 1]: unlike the penalty schedule, the
    bound is meaningful down to the exponent's zero.
    """
    if n_total < 1:
        raise ValueError(f"N must be positive, got {n_total}")
    if not (b > 1):
        raise ValueError(f"decay exponent b must exceed 1, got {b}")
    if not (1.0 / (2.0 * b) <= r_prime <= 1.0):
        raise ValueError(f"r' must lie in [1/(2b), 1], got {r_prime}")
    exponent = (2.0 * b * r_prime - 1.0) / (2.0 * b * r_prime + 1.0)
    return float(n_total) ** exponent


def power_of_two_sqrt(n_total: int) -> int:
    """sqrt(N) rounded to a power of two (exponent rounded half up)."""
    return 2 ** int(math.floor(math.log2(n_total) / 2.0 + 0.5))


@dataclass(frozen=True)
class RateStudyResult:
    sizes: list[int]
    partition_counts: list[int]
    median_sup_errors: list[float]
    slope: float  # d log(err^2) / d log N, nan when undefined


def rate_study(
    sizes,
    r_prime: float,
    reps: int,
    seed,
    kernel: KernelSpec = KernelSpec(),
    schedule_c: float = 1.0,
    true_function: str = "sin2pix",
    table: tuple = (),
    threads: int = 1,
) -> RateStudyResult:
    """Sup-norm error of the averaged estimator as the sample grows.

    Each N is split into P = power_of_two_sqrt(N) partitions, which must
    divide N.  The sup norm is taken over RATE_GRID_SIZE = 512 uniform
    points on [0, 1]; the returned slope is the least-squares fit of
    log(median sup error squared) against log N, nan for a single N.
    """
    grid = np.linspace(0.0, 1.0, RATE_GRID_SIZE).reshape(-1, 1)
    sizes = list(sizes)
    size_seeds = _as_seedseq(seed).spawn(len(sizes))

    medians = []
    p_used = []
    for n_total, s_n in zip(sizes, size_seeds):
        n_partitions = power_of_two_sqrt(n_total)
        if n_total % n_partitions != 0:
            raise ValueError(
                f"partition rule gave P={n_partitions} for N={n_total}, not a divisor"
            )
        p_used.append(n_partitions)
        dgp = DgpSpec(n_total, true_function, table)
        truth = dgp.f_star(grid[:, 0])
        rho = krr.penalty_schedule(n_total, kernel.decay_exponent(1), r_prime, schedule_c)
        rep_seeds = s_n.spawn(reps)

        def one(rs):
            s_data, s_plan = rs.spawn(2)
            sample, _, _ = generate_trial(dgp, 1, s_data)
            plan = dnc.make_partition_plan(n_total, n_partitions, s_plan)
            f_bar = dnc.fit_all_partitions(sample, plan, kernel, rho, grid).row_mean
            return float(np.max(np.abs(f_bar - truth)))

        errs = _ordered_map(one, rep_seeds, threads)
        medians.append(float(np.median(errs)))

    if len(sizes) < 2:
        slope = float("nan")
    else:
        logn = np.log(np.asarray(sizes, dtype=np.float64))
        logerr2 = 2.0 * np.log(np.asarray(medians))
        slope = float(np.polyfit(logn, logerr2, 1)[0])
    return RateStudyResult(sizes, p_used, medians, slope)

