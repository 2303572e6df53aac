import numpy as np
import pytest

from dncbands import kernels
from dncbands.kernels import (
    HALF_INTEGER_NUS,
    KernelSpec,
    SpectralModel,
    cross_matrix,
    effective_dimension,
    effective_dimension_tail,
    gram_matrix,
)

# closed form exp(-u)(1 + u + (2/5)u^2 + (1/15)u^3) at u = sqrt(7),
# evaluated independently at 50-digit precision
MATERN72_AT_ONE = 0.5449424471128748


def test_kernel_at_zero_distance_is_one():
    for nu in HALF_INTEGER_NUS:
        spec = KernelSpec(nu=nu, lengthscale=0.3)
        assert cross_matrix(spec, 0.3, 0.3)[0, 0] == 1.0
        assert cross_matrix(spec, [[0.7, -1.2]], [[0.7, -1.2]])[0, 0] == 1.0


def test_matern72_closed_form_at_unit_distance():
    spec = KernelSpec(nu=3.5, lengthscale=1.0)
    assert cross_matrix(spec, 0.0, 1.0)[0, 0] == pytest.approx(MATERN72_AT_ONE, rel=1e-15)


def test_exponential_special_case():
    spec = KernelSpec(nu=0.5, lengthscale=2.0)
    assert cross_matrix(spec, 0.0, 2.0)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for nu in (0.5, 1.5, 2.5, 3.5):
        spec = KernelSpec(nu=nu, lengthscale=0.7)
        a, b = rng.uniform(-2, 2, size=(2, 20, 3))
        assert np.array_equal(cross_matrix(spec, a, b), cross_matrix(spec, b, a).T)


def test_monotone_decay_in_distance():
    r = np.linspace(0.0, 5.0, 200)
    for nu in (0.5, 1.5, 2.5, 3.5):
        spec = KernelSpec(nu=nu)
        assert np.all(np.diff(cross_matrix(spec, 0.0, r)[0]) < 0)


def test_values_in_unit_interval():
    rng = np.random.default_rng(1)
    spec = KernelSpec()
    v = cross_matrix(spec, rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50))
    assert np.all((0.0 < v) & (v <= 1.0))


def test_non_finite_input_rejected():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        cross_matrix(spec, np.nan, 0.0)
    with pytest.raises(ValueError):
        cross_matrix(spec, 0.0, np.inf)
    with pytest.raises(ValueError):
        gram_matrix(spec, [[0.1], [np.inf]])


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        KernelSpec(nu=2.0)
    with pytest.raises(ValueError):
        KernelSpec(lengthscale=0.0)


def test_gram_single_point():
    g = gram_matrix(KernelSpec(), [[0.4]])
    assert g.shape == (1, 1)
    assert g[0, 0] == 1.0


def test_gram_coincident_points_rank_one():
    g = gram_matrix(KernelSpec(), [[0.4], [0.4], [0.4]])
    assert np.all(g == 1.0)


def test_gram_five_random_points_psd():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, (5, 1))
    g = gram_matrix(KernelSpec(), pts)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-10


def test_gram_psd_up_to_fifty_points():
    rng = np.random.default_rng(2)
    for nu in (0.5, 1.5, 2.5, 3.5):
        for n, d in ((10, 1), (50, 2), (33, 3)):
            spec = KernelSpec(nu=nu, lengthscale=0.5)
            pts = rng.uniform(-1, 1, (n, d))
            g = gram_matrix(spec, pts)
            assert np.array_equal(g, g.T)
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-10 * n


def closed_form_profile(spec, r):
    """p(u) * exp(-u), written out term by term; the tests' kernel oracle."""
    u = np.sqrt(2.0 * spec.nu) * r / spec.lengthscale
    if spec.nu == 0.5:
        poly = 1.0
    elif spec.nu == 1.5:
        poly = 1.0 + u
    elif spec.nu == 2.5:
        poly = 1.0 + u + u * u / 3.0
    else:
        poly = 1.0 + u + 0.4 * u * u + u * u * u / 15.0
    return poly * np.exp(-u)


def closed_form_cross(spec, a, b):
    """k(a_i, b_j) for two (n, d) point sets, from closed_form_profile."""
    diff = a[:, None, :] - b[None, :, :]
    return closed_form_profile(spec, np.sqrt(np.sum(diff * diff, axis=-1)))


def test_kernel_matrices_bitwise_equal_closed_form():
    rng = np.random.default_rng(3)
    for nu in (0.5, 1.5, 2.5, 3.5):
        for lengthscale in (0.2, 1.0, 3.3):
            spec = KernelSpec(nu=nu, lengthscale=lengthscale)
            for d in (1, 2, 3):
                a = rng.uniform(-2, 2, (40, d))
                b = rng.uniform(-2, 2, (25, d))
                assert np.array_equal(cross_matrix(spec, a, b), closed_form_cross(spec, a, b))
                assert np.array_equal(gram_matrix(spec, a), closed_form_cross(spec, a, a))
            # from d = 8 on np.sum adds pairwise, not in coordinate order
            a = rng.uniform(-2, 2, (40, 9))
            assert np.allclose(gram_matrix(spec, a), closed_form_cross(spec, a, a),
                               rtol=1e-13, atol=0.0)
    rng = np.random.default_rng(26)
    for nu in HALF_INTEGER_NUS:
        spec = KernelSpec(nu=nu, lengthscale=0.05)
        for d in (1, 2, 3):
            a = rng.uniform(-0.5, 0.5, (40, d))
            b = rng.uniform(-0.5, 0.5, (25, d))
            assert np.array_equal(cross_matrix(spec, a, b), closed_form_cross(spec, a, b))
            assert np.array_equal(gram_matrix(spec, a), closed_form_cross(spec, a, a))
        # in d = 1 the distance is |x|, exact where x * x is subnormal and
        # sqrt(x * x) has lost bits; the kernel value differs only because
        # this lengthscale is tiny enough for u = sqrt(2 nu) |x| / l to matter
        tiny = KernelSpec(nu=nu, lengthscale=1e-159)
        pair = np.array([[0.0], [3e-160]])
        exact = closed_form_profile(tiny, np.array([[0.0, 3e-160], [3e-160, 0.0]]))
        assert np.array_equal(gram_matrix(tiny, pair), exact)
        assert np.array_equal(cross_matrix(tiny, pair, pair), exact)
        assert exact[0, 1] != closed_form_cross(tiny, pair, pair)[0, 1]  # the sqrt path
        assert gram_matrix(spec, pair)[0, 1] == 1.0  # at lengthscale 0.05 both ways give 1.0


@pytest.mark.parametrize("block", [1, 3, kernels.ROW_BLOCK_ENTRIES])
def test_kernel_matrices_do_not_depend_on_the_row_block(monkeypatch, block):
    # several blocks each, the last one short at the default block size
    monkeypatch.setattr(kernels, "ROW_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(8)
    for nu in HALF_INTEGER_NUS:
        spec = KernelSpec(nu=nu, lengthscale=0.7)
        for n, d in ((1500, 1), (300, 3)):
            a = rng.uniform(-2, 2, (n, d))
            g = gram_matrix(spec, a)
            assert np.array_equal(g, closed_form_cross(spec, a, a))
            assert np.array_equal(g, g.T)
        for n, m in ((513, 1024), (1, 700), (1000, 1)):
            a = rng.uniform(-2, 2, (n, 2))
            b = rng.uniform(-2, 2, (m, 2))
            assert np.array_equal(cross_matrix(spec, a, b), closed_form_cross(spec, a, b))


@pytest.mark.parametrize("block", [1, 3, 700, kernels.ROW_BLOCK_ENTRIES])
def test_stacked_kernel_matrices_equal_their_slices(monkeypatch, block):
    # several whole matrices per block, one per block and rows of one
    monkeypatch.setattr(kernels, "ROW_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(9)
    for nu in HALF_INTEGER_NUS:
        spec = KernelSpec(nu=nu, lengthscale=0.4)
        for g, n, m, d in ((5, 16, 9, 1), (3, 1, 4, 2), (2, 270, 300, 1), (4, 7, 1, 3)):
            a = rng.uniform(-1, 1, (g, n, d))
            b = rng.uniform(-1, 1, (g, m, d))
            pts = rng.uniform(-1, 1, (m, d))
            grams = gram_matrix(spec, a)
            assert grams.shape == (g, n, n)
            cross_b = cross_matrix(spec, pts, a)
            cross_a = cross_matrix(spec, a, pts)
            pairs = cross_matrix(spec, b, a)
            assert cross_b.shape == pairs.shape == (g, m, n) and cross_a.shape == (g, n, m)
            for i in range(g):
                assert grams[i].tobytes() == gram_matrix(spec, a[i]).tobytes()
                assert cross_b[i].tobytes() == cross_matrix(spec, pts, a[i]).tobytes()
                assert cross_a[i].tobytes() == cross_matrix(spec, a[i], pts).tobytes()
                assert pairs[i].tobytes() == cross_matrix(spec, b[i], a[i]).tobytes()
                assert np.array_equal(grams[i], closed_form_cross(spec, a[i], a[i]))


def test_stacks_must_agree_in_count_and_dimension():
    spec = KernelSpec()
    with pytest.raises(ValueError):
        cross_matrix(spec, np.zeros((2, 3, 1)), np.zeros((3, 3, 1)))
    with pytest.raises(ValueError):
        cross_matrix(spec, np.zeros((2, 3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="at most 3-dimensional"):
        gram_matrix(spec, np.zeros((1, 2, 3, 1)))


def test_effective_dimension_single_eigenvalue():
    model = SpectralModel(8.0, 1)  # mu_1 = 1
    assert effective_dimension(model, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_effective_dimension_brute_force_oracle():
    # partial sum at a much higher truncation is the oracle
    rho = 1e-4
    model = SpectralModel(8.0, 10**4)
    value = effective_dimension(model, rho)
    oracle = SpectralModel(8.0, 10**6)
    assert value == pytest.approx(effective_dimension(oracle, rho), rel=1e-12)
    assert value == pytest.approx(2.7447930103482587, rel=1e-12)
    # integral comparison: within a constant factor of rho^(-1/8)
    assert 0.1 < value * rho ** (1.0 / 8.0) < 10.0


def test_effective_dimension_dominated_by_large_rho():
    model = SpectralModel(8.0, 1)
    assert effective_dimension(model, 1e8) == pytest.approx(1e-8, rel=1e-6)


def test_effective_dimension_monotone_in_rho():
    model = SpectralModel(4.0, 1000)
    rhos = np.logspace(-6, 2, 25)
    vals = [effective_dimension(model, r) for r in rhos]
    assert np.all(np.diff(vals) < 0)


def test_effective_dimension_polynomial_scaling():
    # T(rho) * rho^(1/b) stays within a constant factor across rho
    model = SpectralModel(8.0, 10**4)
    rhos = np.logspace(-6, -1, 11)
    prods = np.array(
        [effective_dimension(model, r) * r ** (1.0 / 8.0) for r in rhos]
    )
    assert prods.max() / prods.min() < 10.0
    assert np.all(prods > 0.1) and np.all(prods < 10.0)


def test_effective_dimension_domain_error():
    model = SpectralModel(8.0, 10)
    with pytest.raises(ValueError):
        effective_dimension(model, 0.0)
    with pytest.raises(ValueError):
        effective_dimension(model, -1.0)


def test_tail_term_reported():
    model = SpectralModel(8.0, 100)
    rho = 1e-3
    mu_last = 100.0**-8
    assert effective_dimension_tail(model, rho) == pytest.approx(
        mu_last / (mu_last + rho), rel=1e-12
    )
    assert effective_dimension_tail(model, rho) < 1e-8


def test_spectral_model_validation():
    with pytest.raises(ValueError, match="exceed 1"):
        SpectralModel(1.0, 3)
    with pytest.raises(ValueError, match="positive integer"):
        SpectralModel(2.0, 0)


def test_spectral_model_from_matern():
    model = SpectralModel.from_matern(KernelSpec(nu=3.5), dim=1, truncation=16)
    assert model.decay_exponent == 8.0
    j = np.arange(1, 17, dtype=float)
    assert np.array_equal(model.eigenvalues, j**-8.0)
