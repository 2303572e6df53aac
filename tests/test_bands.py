import tracemalloc

import numpy as np
import pytest

from dncbands.bands import (
    Bands,
    _min_inside_count,
    band_intervals,
    calibrate,
    calibrate_prefixes,
    covers,
    save_bands_csv,
)
from dncbands.bootstrap import BootstrapDraws, draw
from dncbands.dnc import LocalPredictionMatrix


def draws_of(deltas):
    return BootstrapDraws(np.asarray(deltas, dtype=float))


def brute_force_calibrate(deltas, alpha):
    """Independent oracle: scan every candidate tail level, count directly.

    Walks k from the narrowest admissible band down, evaluating coverage
    by explicit membership tests against the (k, B+1-k) order-statistic
    band; returns the largest k whose coverage reaches 1 - alpha, else
    the widest band k = 1.  Zero-spread columns impose no constraint.
    """
    deltas = np.asarray(deltas, dtype=float)
    b, t = deltas.shape
    sorted_cols = np.sort(deltas, axis=0)
    degenerate = sorted_cols[0] == sorted_cols[-1]
    k_max = max(1, (b - 1) // 2)
    target = 1.0 - alpha

    def coverage_at(k):
        lower = sorted_cols[k - 1]
        upper = sorted_cols[b - k]
        inside = np.ones(b, dtype=bool)
        for col in range(t):
            if degenerate[col]:
                continue
            inside &= (deltas[:, col] > lower[col]) & (deltas[:, col] < upper[col])
        return np.count_nonzero(inside) / b

    if bool(np.all(degenerate)):
        return k_max, 1.0
    for k in range(k_max, 0, -1):
        cov = coverage_at(k)
        if cov >= target:
            return k, cov
    return 1, coverage_at(1)


def test_t1_marginal_quantiles():
    # single component: simultaneous = marginal, c = alpha / 2
    values = np.arange(1, 101) / 100.0 - 0.505  # symmetric version of {1..100}/100
    bands = calibrate(draws_of(values.reshape(-1, 1)), alpha=0.1)
    assert bands.achieved_tail == pytest.approx(0.05)
    ordered = np.sort(values)
    assert bands.lower[0] == ordered[4]  # k = ceil(0.05 * 100) = 5
    assert bands.upper[0] == ordered[95]
    assert bands.achieved_coverage == pytest.approx(0.90)


def test_all_zero_deltas():
    bands = calibrate(draws_of(np.zeros((40, 3))), alpha=0.1)
    assert np.array_equal(bands.lower, np.zeros(3))
    assert np.array_equal(bands.upper, np.zeros(3))
    assert bands.achieved_coverage == 1.0
    assert np.all(bands.degenerate)


def test_crafted_small_instance_matches_oracle():
    deltas = np.array(
        [
            [0.1, -0.2],
            [-0.4, 0.3],
            [0.2, 0.1],
            [-0.1, -0.3],
            [0.5, 0.2],
            [-0.3, -0.1],
            [0.0, 0.4],
            [0.3, 0.0],
        ]
    )
    alpha = 0.5
    bands = calibrate(draws_of(deltas), alpha)
    k_oracle, cov_oracle = brute_force_calibrate(deltas, alpha)
    assert bands.achieved_tail == pytest.approx(k_oracle / 8.0)
    assert bands.achieved_coverage == pytest.approx(cov_oracle)
    ordered = np.sort(deltas, axis=0)
    assert np.array_equal(bands.lower, ordered[k_oracle - 1])
    assert np.array_equal(bands.upper, ordered[8 - k_oracle])


def random_instance(rng):
    b = int(rng.integers(20, 51))
    t = int(rng.integers(1, 5))
    alpha = float(rng.uniform(0.05, 0.6))
    if rng.random() < 0.3:
        # discretized values force ties through the rank logic
        deltas = rng.integers(-3, 4, size=(b, t)).astype(float) / 4.0
    else:
        deltas = rng.normal(size=(b, t))
    if rng.random() < 0.15:
        deltas[:, 0] = deltas[0, 0]  # degenerate component
    return deltas, alpha


def test_oracle_equivalence_on_random_instances():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        deltas, alpha = random_instance(rng)
        bands = calibrate(draws_of(deltas), alpha)
        k_oracle, cov_oracle = brute_force_calibrate(deltas, alpha)
        b = deltas.shape[0]
        if bands.achieved_tail != pytest.approx(k_oracle / b):
            mismatches += 1
            continue
        if bands.achieved_coverage != pytest.approx(cov_oracle):
            mismatches += 1
            continue
        ordered = np.sort(deltas, axis=0)
        if not (
            np.array_equal(bands.lower, ordered[k_oracle - 1])
            and np.array_equal(bands.upper, ordered[b - k_oracle])
        ):
            mismatches += 1
    assert mismatches == 0


# unsorted, with a repeat: results follow the order of the requested T values
PREFIXES = (65, 1, 130, 63, 64, 1)


def prefix_instances():
    """(name, deltas, alpha) with 130 components, two rank blocks and a bit."""
    rng = np.random.default_rng(31)
    ties = rng.integers(-3, 4, size=(50, 130)).astype(float) / 4.0
    ties[:, 40] = 0.5  # constant column inside the first block
    ties[:, 100] = -0.25  # and inside the third
    leading = rng.normal(size=(50, 130))
    leading[:, :70] = 1.5  # degenerate prefix crossing the first block edge
    unreachable = rng.normal(size=(40, 130))  # small B, many components
    return [("ties", ties, 0.1), ("leading", leading, 0.2), ("unreachable", unreachable, 0.05)]


def assert_bands_identical(got, want):
    for name in ("lower", "upper", "degenerate"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("achieved_tail", "achieved_coverage", "tail_reachable"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("name,deltas,alpha", prefix_instances())
def test_calibrate_prefixes_match_calibrate_and_oracle(name, deltas, alpha):
    results = calibrate_prefixes(draws_of(deltas), alpha, PREFIXES)
    assert len(results) == len(PREFIXES)
    b = deltas.shape[0]
    for t, got in zip(PREFIXES, results):
        head = deltas[:, :t]
        assert_bands_identical(got, calibrate(draws_of(head), alpha))
        k_oracle, cov_oracle = brute_force_calibrate(head, alpha)
        assert got.achieved_tail == k_oracle / b
        assert got.achieved_coverage == pytest.approx(cov_oracle)
        ordered = np.sort(head, axis=0)
        assert np.array_equal(got.lower, ordered[k_oracle - 1])
        assert np.array_equal(got.upper, ordered[b - k_oracle])
    if name == "leading":
        assert [bool(np.all(r.degenerate)) for r in results] == [True, True, False, True, True, True]
    if name == "unreachable":
        assert results[1].tail_reachable and not results[2].tail_reachable


RANK_BLOCK = 64


def _block_depths(block):
    """Sorted rows, per-entry depths and degenerate flags of a (w, B) block.

    Row i holds one component's B draws.  An entry's depth is
    min(#draws strictly below, #draws strictly above): in the stably
    sorted row these are the start of its tie run and B - 1 minus the
    run's end.  Degenerate rows get the int64 maximum, so they never
    bind the minimum over components.
    """
    w, b_total = block.shape
    order = np.argsort(block, axis=1, kind="stable")
    ordered = np.take_along_axis(block, order, axis=1)
    position = np.arange(b_total)
    run_start = np.ones((w, b_total), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_start[:, 1:])
    below = np.where(run_start, position, 0)
    np.maximum.accumulate(below, axis=1, out=below)
    run_end = np.ones((w, b_total), dtype=bool)
    run_end[:, :-1] = run_start[:, 1:]
    above = np.where(run_end, position, b_total - 1)[:, ::-1]
    np.minimum.accumulate(above, axis=1, out=above)
    np.subtract(b_total - 1, above, out=above)
    np.minimum(below, above[:, ::-1], out=below)
    depth = np.empty((w, b_total), dtype=np.int64)
    np.put_along_axis(depth, order, below, axis=1)
    degenerate = ordered[:, 0] == ordered[:, -1]
    depth[degenerate] = np.iinfo(np.int64).max
    return ordered, depth, degenerate


def rank_calibrate_prefixes(deltas, alpha, points):
    """Reference oracle: every per-draw depth from a stable argsort of each column.

    No cap and no tails: the full (T, B) rank transform, blocked by
    RANK_BLOCK components, with the library's level-selection rule.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    b_total, t_total = deltas.shape
    points = [int(t) for t in points]
    t_max = max(points)

    sorted_cols = np.empty((t_max, b_total), dtype=np.float64)
    degenerate = np.empty(t_max, dtype=bool)
    depth_at = {}
    running = np.full(b_total, np.iinfo(np.int64).max, dtype=np.int64)
    columns = deltas.T
    for start in range(0, t_max, RANK_BLOCK):
        stop = min(start + RANK_BLOCK, t_max)
        ordered, depth, degenerate[start:stop] = _block_depths(columns[start:stop])
        sorted_cols[start:stop] = ordered
        np.minimum(depth[0], running, out=depth[0])
        np.minimum.accumulate(depth, axis=0, out=depth)
        running = depth[-1]
        for t in points:
            if start < t <= stop:
                depth_at[t] = depth[t - start - 1].copy()

    k_max = max(1, (b_total - 1) // 2)
    need = _min_inside_count(b_total, alpha)
    out = []
    for t in points:
        if bool(np.all(degenerate[:t])):
            k = k_max
            coverage = 1.0
            reachable = True
        else:
            depth = depth_at[t]
            if need > b_total:
                k_star = 0
            else:
                k_star = int(np.partition(depth, b_total - need)[b_total - need])
            k_star = min(k_star, k_max)
            reachable = k_star >= 1
            k = max(1, k_star)
            coverage = float(np.count_nonzero(depth >= k) / b_total)
        out.append(Bands(
            lower=sorted_cols[:t, k - 1].copy(),
            upper=sorted_cols[:t, b_total - k].copy(),
            achieved_tail=k / b_total,
            achieved_coverage=coverage,
            degenerate=degenerate[:t].copy(),
            tail_reachable=reachable,
        ))
    return out


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


def tie_heavy_instance(rng, b):
    """(deltas, alpha, points) with ties, +-0.0 runs and constant columns."""
    t = int(rng.integers(1, 131))
    kind = int(rng.integers(4))
    if kind == 0:
        deltas = rng.normal(size=(b, t))
    elif kind == 1:
        deltas = rng.integers(-3, 4, size=(b, t)) / 4.0
    elif kind == 2:
        deltas = np.round(0.6 * rng.normal(size=(b, t)))  # rounds to -0.0 and 0.0
    else:
        deltas = rng.integers(-1, 2, size=(b, t)) + signed_zeros(rng, (b, t))
    for col in np.flatnonzero(rng.random(t) < 0.1):
        deltas[:, col] = signed_zeros(rng, b) if rng.random() < 0.5 else 0.75
    if rng.random() < 0.25:  # a degenerate prefix, which may cross any requested T
        deltas[:, : int(rng.integers(1, t + 1))] = 1.5
    alpha = float(rng.choice([0.001, 0.01, 0.05, 0.5, 0.9, 0.999, rng.uniform(0.01, 0.99)]))
    points = [int(p) for p in rng.integers(1, t + 1, size=int(rng.integers(1, 6)))]
    points.append(points[0])  # unsorted, with a repeat
    return deltas, alpha, points


@pytest.mark.parametrize("b", [20, 21, 40, 1000])
def test_calibrate_prefixes_bitwise_equal_rank_oracle(b):
    rng = np.random.default_rng(4100 + b)
    unreachable = 0
    for _ in range(40 if b < 1000 else 12):
        deltas, alpha, points = tie_heavy_instance(rng, b)
        results = calibrate_prefixes(draws_of(deltas), alpha, points)
        assert len(results) == len(points)
        for got, want in zip(results, rank_calibrate_prefixes(deltas, alpha, points)):
            assert_bands_identical(got, want)
            unreachable += not want.tail_reachable
    assert unreachable > 0


@pytest.mark.parametrize("upper", [False, True])
@pytest.mark.parametrize("odd_sign", [-0.0, 0.0])
def test_band_offset_inside_a_mixed_zero_run(upper, odd_sign):
    # five zeros below 1..15: at alpha = 0.5, k = 5 puts the lower offset
    # at sorted position 4, the run's last zero, which a stable sort fills
    # with the column's last zero in replicate order; negating the
    # nonzero values puts the upper offset at the run's first zero
    rng = np.random.default_rng(42)
    zeros = [-odd_sign] * 4 + [odd_sign]
    if upper:
        zeros.reverse()
    at = np.sort(rng.choice(20, size=5, replace=False))  # zeros keep their order
    deltas = np.empty(20)
    deltas[at] = zeros
    deltas[np.setdiff1d(np.arange(20), at)] = rng.permutation(np.arange(1.0, 16.0))
    deltas[deltas != 0.0] *= -1.0 if upper else 1.0
    deltas = deltas.reshape(-1, 1)
    got = calibrate(draws_of(deltas), 0.5)
    assert_bands_identical(got, rank_calibrate_prefixes(deltas, 0.5, (1,))[0])
    assert got.achieved_tail == 5 / 20
    offset = got.upper[0] if upper else got.lower[0]
    assert offset == 0.0 and np.signbit(offset) == np.signbit(odd_sign)


def test_calibrate_prefixes_rejects_t_out_of_range():
    draws = draws_of(np.random.default_rng(32).normal(size=(30, 70)))
    for bad in ((0,), (71,), (-1, 4), (4, 71), ()):
        with pytest.raises(ValueError):
            calibrate_prefixes(draws, 0.1, bad)


def test_calibrate_prefixes_rejects_non_integer_t():
    draws = draws_of(np.random.default_rng(33).normal(size=(30, 70)))
    for bad in ((2.5,), (True,), (2.5, True), (4, np.float64(4.0)), (np.bool_(True),), ("4",)):
        with pytest.raises(ValueError):
            calibrate_prefixes(draws, 0.1, bad)
    assert calibrate_prefixes(draws, 0.1, (np.int64(4), np.int32(70)))[0].lower.shape == (4,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calibrate_prefixes_rejects_non_finite_deltas(bad):
    deltas = np.random.default_rng(34).normal(size=(40, 5))
    deltas[17, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        calibrate_prefixes(draws_of(deltas), 0.1, (2, 5))
    with pytest.raises(ValueError, match="finite"):
        calibrate(draws_of(deltas), 0.1)


def test_calibrate_prefixes_leaves_draws_unchanged():
    for _, deltas, alpha in prefix_instances():
        before = deltas.copy()
        draws = draws_of(deltas)
        calibrate_prefixes(draws, alpha, PREFIXES)
        assert draws.deltas.tobytes() == before.tobytes()


def test_unreachable_target_returns_widest_band():
    # many weakly coupled components, tiny B: even k = 1 misses 1 - alpha
    rng = np.random.default_rng(5)
    deltas = rng.normal(size=(20, 8))
    alpha = 0.05
    bands = calibrate(draws_of(deltas), alpha)
    k_oracle, cov_oracle = brute_force_calibrate(deltas, alpha)
    assert k_oracle == 1
    assert not bands.tail_reachable
    assert bands.achieved_tail == pytest.approx(1.0 / 20.0)
    assert bands.achieved_coverage == pytest.approx(cov_oracle)
    assert bands.achieved_coverage < 1.0 - alpha


def test_equal_tail_violation_counts():
    rng = np.random.default_rng(6)
    deltas = rng.normal(size=(400, 5))
    bands = calibrate(draws_of(deltas), alpha=0.1)
    counts = []
    for t in range(5):
        col = deltas[:, t]
        counts.append(np.count_nonzero((col <= bands.lower[t]) | (col >= bands.upper[t])))
    assert max(counts) - min(counts) <= 1


def test_bands_monotone_in_alpha():
    rng = np.random.default_rng(7)
    deltas = rng.normal(size=(500, 3))
    wide = calibrate(draws_of(deltas), alpha=0.05)
    narrow = calibrate(draws_of(deltas), alpha=0.5)
    assert np.all(wide.lower <= narrow.lower)
    assert np.all(narrow.upper <= wide.upper)


def test_translation_equivariance():
    rng = np.random.default_rng(8)
    deltas = rng.uniform(0, 1, size=(200, 4))
    shift = np.array([0.5, -1.25, 2.0, 0.0])
    base = calibrate(draws_of(deltas), alpha=0.1)
    moved = calibrate(draws_of(deltas + shift), alpha=0.1)
    assert moved.achieved_tail == base.achieved_tail
    assert np.allclose(moved.lower, base.lower + shift, rtol=0, atol=1e-12)
    assert np.allclose(moved.upper, base.upper + shift, rtol=0, atol=1e-12)
    assert np.allclose(
        moved.upper - moved.lower, base.upper - base.lower, rtol=0, atol=1e-12
    )


def test_partial_degeneracy_flagged_and_zero_width():
    rng = np.random.default_rng(9)
    deltas = rng.normal(size=(100, 3))
    deltas[:, 1] = 0.25
    bands = calibrate(draws_of(deltas), alpha=0.1)
    assert list(bands.degenerate) == [False, True, False]
    assert bands.lower[1] == bands.upper[1] == 0.25
    assert bands.achieved_coverage >= 0.9


def test_alpha_domain_error():
    deltas = np.zeros((30, 1))
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            calibrate(draws_of(deltas), bad)


def test_band_intervals_degenerate_at_f_bar():
    bands = calibrate(draws_of(np.zeros((30, 2))), alpha=0.1)
    f_bar = np.array([1.5, -2.0])
    intervals = band_intervals(bands, f_bar)
    assert np.array_equal(intervals[:, 0], f_bar)
    assert np.array_equal(intervals[:, 1], f_bar)


def test_band_intervals_symmetric_case():
    bands = Bands(
        lower=np.array([-0.3, -0.3]),
        upper=np.array([0.3, 0.3]),
        achieved_tail=0.05,
        achieved_coverage=0.9,
        degenerate=np.zeros(2, dtype=bool),
        tail_reachable=True,
    )
    intervals = band_intervals(bands, np.zeros(2))
    assert np.allclose(intervals, [[-0.3, 0.3], [-0.3, 0.3]])


def test_band_intervals_naive_loop_oracle():
    rng = np.random.default_rng(10)
    deltas = rng.normal(size=(100, 4))
    bands = calibrate(draws_of(deltas), alpha=0.2)
    f_bar = rng.normal(size=4)
    intervals = band_intervals(bands, f_bar)
    for t in range(4):
        assert intervals[t, 0] == f_bar[t] - bands.upper[t]
        assert intervals[t, 1] == f_bar[t] - bands.lower[t]


def test_covers_boundary_is_false():
    intervals = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert not covers(intervals, [0.0, 0.5])
    assert not covers(intervals, [0.5, 1.0])
    assert covers(intervals, [0.5, 0.5])


def test_covers_wide_intervals():
    intervals = np.array([[-1e9, 1e9]] * 3)
    assert covers(intervals, [0.0, 123.0, -55.0])


def test_covers_hand_checked_instances():
    assert covers(np.array([[0, 2], [-1, 1]]), [1.0, 0.0])
    assert not covers(np.array([[0, 2], [-1, 1]]), [1.0, 1.5])
    assert not covers(np.array([[0, 2], [-1, 1]]), [-0.5, 0.0])


def test_covers_length_mismatch():
    with pytest.raises(ValueError):
        covers(np.array([[0.0, 1.0]]), [0.5, 0.5])


def test_save_bands_csv(tmp_path):
    rng = np.random.default_rng(11)
    deltas = rng.normal(size=(60, 3))
    bands = calibrate(draws_of(deltas), alpha=0.2)
    f_bar = rng.normal(size=3)
    x_tilde = rng.uniform(0, 1, size=3)
    path = tmp_path / "bands.csv"
    save_bands_csv(path, x_tilde, f_bar, bands, metadata="config_hash=abc master_seed=1")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=abc")
    assert lines[1] == "t,x_tilde,f_bar,lower,upper"
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert int(first[0]) == 0
    assert float(first[3]) == f_bar[0] - bands.upper[0]


def test_a_multiplier_draw_and_its_calibration_hold_two_draw_matrices():
    # the draws, then calibrate's sorted copy of them, plus weights, masks
    # and tails of at most half as much; a second B x T temporary in either
    # step, such as dividing W @ C into a new array or negating the draws,
    # exceeds it
    b, t = 1000, 512
    matrix = LocalPredictionMatrix.from_values(np.random.default_rng(27).normal(size=(64, t)))
    tracemalloc.start()
    try:
        draws = draw(matrix, b, 3, "multiplier")
        draw_peak = tracemalloc.get_traced_memory()[1]
        calibrate(draws, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draw_peak < 1.5 * (8 * b * t), draw_peak
    assert peak < 2.5 * (8 * b * t), peak
