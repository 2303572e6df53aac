import numpy as np
import pytest

from dncbands.kernels import (
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


def test_kernel_at_zero_distance_equals_output_scale():
    spec = KernelSpec()
    assert cross_matrix(spec, 0.3, 0.3)[0, 0] == 1.0
    scaled = KernelSpec(output_scale=2.5)
    assert cross_matrix(scaled, 0.7, 0.7)[0, 0] == 2.5


def test_matern72_closed_form_at_unit_distance():
    spec = KernelSpec(nu=3.5, lengthscale=1.0, output_scale=1.0)
    assert cross_matrix(spec, 0.0, 1.0)[0, 0] == pytest.approx(MATERN72_AT_ONE, rel=1e-15)


def test_exponential_special_case():
    spec = KernelSpec(nu=0.5, lengthscale=2.0, output_scale=1.0)
    assert cross_matrix(spec, 0.0, 2.0)[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_symmetry_exact():
    rng = np.random.default_rng(0)
    for nu in (0.5, 1.5, 2.5, 3.5):
        spec = KernelSpec(nu=nu, lengthscale=0.7, output_scale=1.3)
        a, b = rng.uniform(-2, 2, size=(2, 20, 3))
        assert np.array_equal(cross_matrix(spec, a, b), cross_matrix(spec, b, a).T)


def test_monotone_decay_in_distance():
    r = np.linspace(0.0, 5.0, 200)
    for nu in (0.5, 1.5, 2.5, 3.5):
        spec = KernelSpec(nu=nu)
        assert np.all(np.diff(cross_matrix(spec, 0.0, r)[0]) < 0)


def test_values_in_unit_interval():
    rng = np.random.default_rng(1)
    spec = KernelSpec(output_scale=2.0)
    v = cross_matrix(spec, rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50))
    assert np.all((0.0 < v) & (v <= 2.0))


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
    with pytest.raises(ValueError):
        KernelSpec(output_scale=-1.0)


def test_gram_single_point():
    spec = KernelSpec(output_scale=3.0)
    g = gram_matrix(spec, [[0.4]])
    assert g.shape == (1, 1)
    assert g[0, 0] == 3.0


def test_gram_coincident_points_rank_one():
    spec = KernelSpec(output_scale=2.0)
    g = gram_matrix(spec, [[0.4], [0.4], [0.4]])
    assert np.all(g == 2.0)


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
            spec = KernelSpec(nu=nu, lengthscale=0.5, output_scale=1.5)
            pts = rng.uniform(-1, 1, (n, d))
            g = gram_matrix(spec, pts)
            assert np.array_equal(g, g.T)
            eigs = np.linalg.eigvalsh(g)
            assert eigs.min() >= -1e-10 * n * spec.output_scale


def closed_form_profile(spec, r):
    """s * p(u) * exp(-u), written out term by term; the tests' kernel oracle."""
    u = np.sqrt(2.0 * spec.nu) * r / spec.lengthscale
    if spec.nu == 0.5:
        poly = 1.0
    elif spec.nu == 1.5:
        poly = 1.0 + u
    elif spec.nu == 2.5:
        poly = 1.0 + u + u * u / 3.0
    else:
        poly = 1.0 + u + 0.4 * u * u + u * u * u / 15.0
    return spec.output_scale * poly * np.exp(-u)


def closed_form_cross(spec, a, b):
    """k(a_i, b_j) for two (n, d) point sets, from closed_form_profile."""
    diff = a[:, None, :] - b[None, :, :]
    return closed_form_profile(spec, np.sqrt(np.sum(diff * diff, axis=-1)))


def test_kernel_matrices_bitwise_equal_closed_form():
    rng = np.random.default_rng(3)
    for nu in (0.5, 1.5, 2.5, 3.5):
        for lengthscale, scale in ((0.2, 1.0), (1.0, 1.5), (3.3, 0.3)):
            spec = KernelSpec(nu=nu, lengthscale=lengthscale, output_scale=scale)
            for d in (1, 2, 3):
                a = rng.uniform(-2, 2, (40, d))
                b = rng.uniform(-2, 2, (25, d))
                assert np.array_equal(cross_matrix(spec, a, b), closed_form_cross(spec, a, b))
                assert np.array_equal(gram_matrix(spec, a), closed_form_cross(spec, a, a))
            # from d = 8 on np.sum adds pairwise, not in coordinate order
            a = rng.uniform(-2, 2, (40, 9))
            assert np.allclose(gram_matrix(spec, a), closed_form_cross(spec, a, a),
                               rtol=1e-13, atol=0.0)


def test_effective_dimension_single_eigenvalue():
    model = SpectralModel.polynomial(8.0, 1)  # mu_1 = 1
    assert effective_dimension(model, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_effective_dimension_brute_force_oracle():
    # partial sum at a much higher truncation is the oracle
    rho = 1e-4
    model = SpectralModel.polynomial(8.0, 10**4)
    value = effective_dimension(model, rho)
    oracle = SpectralModel.polynomial(8.0, 10**6)
    assert value == pytest.approx(effective_dimension(oracle, rho), rel=1e-12)
    assert value == pytest.approx(2.7447930103482587, rel=1e-12)
    # integral comparison: within a constant factor of rho^(-1/8)
    assert 0.1 < value * rho ** (1.0 / 8.0) < 10.0


def test_effective_dimension_dominated_by_large_rho():
    model = SpectralModel.polynomial(8.0, 1)
    assert effective_dimension(model, 1e8) == pytest.approx(1e-8, rel=1e-6)


def test_effective_dimension_monotone_in_rho():
    model = SpectralModel.polynomial(4.0, 1000)
    rhos = np.logspace(-6, 2, 25)
    vals = [effective_dimension(model, r) for r in rhos]
    assert np.all(np.diff(vals) < 0)


def test_effective_dimension_polynomial_scaling():
    # T(rho) * rho^(1/b) stays within a constant factor across rho
    model = SpectralModel.polynomial(8.0, 10**4)
    rhos = np.logspace(-6, -1, 11)
    prods = np.array(
        [effective_dimension(model, r) * r ** (1.0 / 8.0) for r in rhos]
    )
    assert prods.max() / prods.min() < 10.0
    assert np.all(prods > 0.1) and np.all(prods < 10.0)


def test_effective_dimension_domain_error():
    model = SpectralModel.polynomial(8.0, 10)
    with pytest.raises(ValueError):
        effective_dimension(model, 0.0)
    with pytest.raises(ValueError):
        effective_dimension(model, -1.0)


def test_tail_term_reported():
    model = SpectralModel.polynomial(8.0, 100)
    rho = 1e-3
    mu_last = 100.0**-8
    assert effective_dimension_tail(model, rho) == pytest.approx(
        mu_last / (mu_last + rho), rel=1e-12
    )
    assert effective_dimension_tail(model, rho) < 1e-8


def test_spectral_model_validation():
    with pytest.raises(ValueError):
        SpectralModel(1.0, 3, np.array([1.0, 0.5, 0.25]))  # b must exceed 1
    with pytest.raises(ValueError):
        SpectralModel(2.0, 3, np.array([1.0, 1.0, 0.5]))  # not strictly decreasing
    with pytest.raises(ValueError):
        SpectralModel(2.0, 3, np.array([1.0, 0.5]))  # length mismatch


def test_spectral_model_from_matern():
    model = SpectralModel.from_matern(KernelSpec(nu=3.5), dim=1, truncation=16)
    assert model.decay_exponent == 8.0
    j = np.arange(1, 17, dtype=float)
    assert np.array_equal(model.eigenvalues, j**-8.0)
