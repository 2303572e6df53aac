import itertools

import numpy as np
import pytest

from dncbands import bootstrap, kernels
from dncbands.bootstrap import draw, empirical_draws, multiplier_draws, resample_deltas
from dncbands.dnc import LocalPredictionMatrix


def matrix_from(values):
    return LocalPredictionMatrix.from_values(np.asarray(values, dtype=float))


def draw_all_schemes(matrix, b, seed):
    """Deltas of the empirical and the multiplier scheme."""
    return [empirical_draws(matrix, b, seed).deltas, multiplier_draws(matrix, b, seed).deltas]


def test_single_partition_deltas_exactly_zero():
    matrix = matrix_from([[0.1, -0.7, 3.3]])
    for deltas in draw_all_schemes(matrix, 50, seed=0):
        assert np.all(deltas == 0.0)


def test_identical_rows_deltas_exactly_zero():
    # 0.1 is not exactly representable and its pinned row mean over 3
    # rows need not equal it; exactness comes from centring a constant
    # column to 0, not from lucky arithmetic
    matrix = matrix_from([[0.1, 0.3]] * 3)
    for deltas in draw_all_schemes(matrix, 200, seed=1):
        assert np.all(deltas == 0.0)


def test_deltas_invariant_to_shifting_every_local_prediction():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(16, 5))
    base = draw_all_schemes(matrix_from(values), 500, seed=22)
    shifted = draw_all_schemes(matrix_from(values + 5.0), 500, seed=22)
    for d_base, d_shifted in zip(base, shifted):
        assert np.max(np.abs(d_shifted - d_base)) < 1e-12


def test_two_row_resample_distribution():
    # rows 0 and 1: the four equally likely resamples give deltas
    # {-1/2, 0, 0, +1/2}
    matrix = matrix_from([[0.0], [1.0]])
    draws = empirical_draws(matrix, 10**5, seed=2)
    d = draws.deltas[:, 0]
    freqs = {
        -0.5: np.mean(d == -0.5),
        0.0: np.mean(d == 0.0),
        0.5: np.mean(d == 0.5),
    }
    assert set(np.unique(d)) <= {-0.5, 0.0, 0.5}
    assert freqs[-0.5] == pytest.approx(0.25, abs=0.01)
    assert freqs[0.0] == pytest.approx(0.5, abs=0.01)
    assert freqs[0.5] == pytest.approx(0.25, abs=0.01)


def enumerate_all_resamples(values):
    """Deltas of every one of the P^P equally likely index tuples."""
    matrix = matrix_from(values)
    p = matrix.partitions
    idx = np.array(list(itertools.product(range(p), repeat=p)), dtype=np.int64)
    return matrix, resample_deltas(matrix.values, matrix.row_mean, idx)


def test_resample_counts_and_deltas_match_the_scatter_add_form(monkeypatch):
    # the weight rows were built with np.add.at; the counts must stay equal
    # so that W, and with it every delta, keeps its bits
    seen = []
    real = bootstrap._weighted_deltas

    def recording(values, row_mean, weights):
        seen.append(weights)
        return real(values, row_mean, weights)

    monkeypatch.setattr(bootstrap, "_weighted_deltas", recording)
    rng = np.random.default_rng(20)
    for b, p in ((1, 1), (9, 1), (1, 5), (6, 3), (1000, 64), (17, 257)):
        matrix = matrix_from(rng.normal(size=(p, 4)))
        idx = rng.integers(0, p, size=(b, p))
        counts = np.zeros((b, p))
        np.add.at(counts, (np.arange(b)[:, None], idx), 1.0)
        got = resample_deltas(matrix.values, matrix.row_mean, idx)
        assert seen[-1].dtype == counts.dtype and seen[-1].tobytes() == counts.tobytes()
        want = real(matrix.values, matrix.row_mean, counts)
        assert got.tobytes() == want.tobytes()


def test_resample_indices_out_of_range_are_rejected():
    matrix = matrix_from(np.arange(6.0).reshape(3, 2))
    for bad in ([[0, 1, 3]], [[-1, 0, 0]]):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            resample_deltas(matrix.values, matrix.row_mean, np.array(bad))


def test_exhaustive_conditional_mean_is_zero():
    rng = np.random.default_rng(3)
    for p in (2, 3, 4):
        matrix, deltas = enumerate_all_resamples(rng.normal(size=(p, 2)))
        assert np.max(np.abs(deltas.mean(axis=0))) < 1e-12


def test_exhaustive_conditional_covariance_closed_form():
    rng = np.random.default_rng(4)
    for p in (2, 3, 4):
        values = rng.normal(size=(p, 2))
        matrix, deltas = enumerate_all_resamples(values)
        empirical_cov = deltas.T @ deltas / deltas.shape[0]
        centered = values - matrix.row_mean
        closed_form = centered.T @ centered / p**2
        assert np.max(np.abs(empirical_cov - closed_form)) < 1e-12


def test_multiplier_identical_rows_are_scalar_multiples():
    # rows c_p * v centre to (c_p - c_bar) * v, so every replicate is
    # delta_b = s_b * v with s_b = sum_p w_bp (c_p - c_bar) / P; rows that
    # are exactly identical give s_b = 0
    v = np.array([0.4, -1.1, 2.2])
    c = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    draws = multiplier_draws(matrix_from(np.outer(c, v)), 100, seed=5)
    ratios = draws.deltas / v
    assert np.allclose(ratios, ratios[:, [0]], rtol=1e-10, atol=1e-12)
    assert np.any(ratios[:, 0] != 0.0)
    identical = multiplier_draws(matrix_from(np.tile(v, (5, 1))), 100, seed=5)
    assert np.all(identical.deltas / v == 0.0)


def test_multiplier_single_partition_identity():
    # at P = 1 the one row is its own mean, so delta = w * (v - v) = 0
    # for every weight w: the bootstrap carries no spread
    v = np.array([2.0, -3.0, 0.1])
    matrix = matrix_from([v])
    draws = multiplier_draws(matrix, 2000, seed=6)
    assert draws.deltas.shape == (2000, 3)
    assert np.all(draws.deltas == 0.0)
    assert np.all(draws.deltas.mean(axis=0) == 0.0)
    assert np.all(draws.deltas.std(axis=0, ddof=1) == 0.0)


def test_multiplier_zero_matrix_gives_zero_deltas():
    matrix = matrix_from(np.zeros((6, 3)))
    draws = multiplier_draws(matrix, 64, seed=7)
    assert np.all(draws.deltas == 0.0)


def test_multiplier_variance_closed_form():
    # centered rows: Var[delta_t] = P^-2 * sum_p values[p, t]^2
    rng = np.random.default_rng(8)
    p = 64
    values = rng.normal(size=(p, 1))
    values -= values.mean(axis=0)
    matrix = matrix_from(values)
    draws = multiplier_draws(matrix, 10**5, seed=9)
    expected = np.sum(values**2) / p**2
    assert draws.deltas[:, 0].var() == pytest.approx(expected, rel=0.05)


def test_multiplier_weights_are_the_gaussian_stream_bit_for_bit():
    # W = default_rng(seed).normal(1, 1, (B, P)) and deltas = W @ C / P,
    # where C is V - v_bar with its constant columns set to exactly 0
    rng = np.random.default_rng(23)
    values = rng.normal(size=(7, 5))
    values[:, 2] = 0.1  # a constant column
    matrix = matrix_from(values)
    centered = values - matrix.row_mean
    centered[:, 2] = 0.0
    for b, seed in ((1, 0), (300, 24), (1000, np.random.SeedSequence(25))):
        want = np.random.default_rng(seed).normal(1.0, 1.0, (b, 7)) @ centered / 7
        got = multiplier_draws(matrix, b, seed).deltas
        assert got.tobytes() == want.tobytes()


def test_empirical_and_multiplier_sds_agree():
    # on centred rows both schemes have conditional mean 0 and covariance
    # (V - v_bar)^T (V - v_bar) / P^2, so the sd gap is Monte Carlo error
    # alone, about 1/sqrt(2B) per scheme, well inside the 5% tolerance
    rng = np.random.default_rng(11)
    matrix = matrix_from(rng.normal(size=(256, 8)))
    b = 10**5
    sd_emp = empirical_draws(matrix, b, seed=12).deltas.std(axis=0, ddof=1)
    sd_mul = multiplier_draws(matrix, b, seed=13).deltas.std(axis=0, ddof=1)
    assert np.max(np.abs(sd_emp - sd_mul) / sd_emp) < 0.05


def test_determinism_same_seed():
    rng = np.random.default_rng(14)
    matrix = matrix_from(rng.normal(size=(16, 4)))
    a = empirical_draws(matrix, 500, seed=99)
    b = empirical_draws(matrix, 500, seed=99)
    assert np.array_equal(a.deltas, b.deltas)
    c = multiplier_draws(matrix, 500, seed=99)
    d = multiplier_draws(matrix, 500, seed=99)
    assert np.array_equal(c.deltas, d.deltas)


def test_no_kernel_evaluations_during_bootstrap(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("bootstrap must not evaluate the kernel")

    # cross_matrix and gram_matrix evaluate the kernel through this one function
    monkeypatch.setattr(kernels, "_matern_profile_inplace", boom)
    rng = np.random.default_rng(15)
    matrix = matrix_from(rng.normal(size=(8, 3)))
    empirical_draws(matrix, 200, seed=16)
    multiplier_draws(matrix, 200, seed=17)


def test_replicate_count_validation():
    matrix = matrix_from([[1.0]])
    with pytest.raises(ValueError):
        empirical_draws(matrix, 0, seed=0)
    with pytest.raises(ValueError, match="replicate count"):
        multiplier_draws(matrix, 0, seed=0)


def test_draw_dispatches_to_the_scheme_bit_for_bit():
    matrix = matrix_from(np.random.default_rng(18).normal(size=(6, 5)))
    dispatched = [draw(matrix, 300, 19, scheme) for scheme in bootstrap.SCHEMES]
    for got, want in zip(dispatched, draw_all_schemes(matrix, 300, 19)):
        assert np.array_equal(got.deltas, want)
    with pytest.raises(ValueError, match="scheme"):
        draw(matrix, 300, 19, "emprical")
