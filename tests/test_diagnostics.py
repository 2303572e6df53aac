import numpy as np
import pytest

from dncbands.diagnostics import (
    EigenExpansionFunction,
    check_interpolation_inequality,
    check_trace_bound,
    cosine_basis,
    variance_proxy,
)
from dncbands.kernels import SpectralModel

GRID = np.linspace(0.0, 1.0, 2048)


def test_trace_bound_single_eigenvalue():
    model = SpectralModel(8.0, 1)  # mu_1 = 1
    check = check_trace_bound(model, 1.0)
    assert check.lhs == pytest.approx(0.25, rel=1e-15)
    assert check.rhs == pytest.approx(0.5, rel=1e-15)
    assert check.lhs <= check.rhs
    assert check.ratio == pytest.approx(0.5, rel=1e-12)


def test_trace_bound_polynomial_model():
    model = SpectralModel(8.0, 10**4)
    check = check_trace_bound(model, 1e-3)
    assert check.lhs <= check.rhs
    assert check.ratio < 1.0
    # direct summation oracle for the left side
    mu = model.eigenvalues
    assert check.lhs == pytest.approx(np.sum(mu / (mu + 1e-3) ** 2), rel=1e-12)


def test_trace_bound_vanishes_for_large_rho():
    model = SpectralModel(8.0, 100)
    check = check_trace_bound(model, 1e8)
    assert check.lhs < 1e-14 and check.rhs < 1e-14
    assert check.lhs <= check.rhs


def test_trace_bound_holds_across_grid():
    # zero violations over the sampled (rho, J, b) grid
    for b in (1.5, 2.0, 4.0, 8.0):
        for j in (10**2, 10**4):
            model = SpectralModel(b, j)
            for rho in np.logspace(-6, -1, 12):
                check = check_trace_bound(model, float(rho))
                assert check.lhs <= check.rhs


def test_cosine_basis_orthonormal_and_bounded():
    x = np.linspace(0, 1, 20001)
    w = np.full_like(x, 1.0 / (len(x) - 1))
    w[0] *= 0.5
    w[-1] *= 0.5  # trapezoid weights
    for j in (1, 2, 5):
        fj = cosine_basis(j, x)
        assert np.max(np.abs(fj)) <= np.sqrt(2.0) + 1e-12
        assert np.sum(w * fj * fj) == pytest.approx(1.0, abs=1e-6)
        for k in (1, 2, 5):
            if k != j:
                fk = cosine_basis(k, x)
                assert np.sum(w * fj * fk) == pytest.approx(0.0, abs=1e-9)


def test_interpolation_single_basis_function():
    model = SpectralModel(8.0, 4)
    # theta = e_2 / sqrt(mu_2) makes f exactly the second basis function
    theta = np.zeros(4)
    theta[1] = model.eigenvalues[1] ** -0.5
    f = EigenExpansionFunction(theta, model)
    assert f.l2_norm() == pytest.approx(1.0, rel=1e-12)
    assert f.rkhs_norm() == pytest.approx(model.eigenvalues[1] ** -0.5, rel=1e-12)
    check = check_interpolation_inequality(f, GRID)
    assert check.sup_norm_est == pytest.approx(np.sqrt(2.0), rel=1e-6)
    assert check.sup_norm_est <= np.sqrt(2.0) + 1e-9


def test_interpolation_zero_function():
    model = SpectralModel(8.0, 8)
    f = EigenExpansionFunction(np.zeros(8), model)
    check = check_interpolation_inequality(f, GRID)
    assert check == (0.0, 0.0, 0.0)


def test_interpolation_ratio_bounded_over_random_draws():
    model = SpectralModel(8.0, 256)
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(100):
        f = EigenExpansionFunction(rng.normal(size=256), model)
        check = check_interpolation_inequality(f, GRID)
        assert np.isfinite(check.ratio)
        ratios.append(check.ratio)
    assert max(ratios) < 10.0


def test_interpolation_ratio_scale_invariant():
    model = SpectralModel(8.0, 32)
    rng = np.random.default_rng(43)
    theta = rng.normal(size=32)
    base = check_interpolation_inequality(EigenExpansionFunction(theta, model), GRID)
    scaled = check_interpolation_inequality(
        EigenExpansionFunction(17.0 * theta, model), GRID
    )
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)


def test_variance_proxy_scaling_in_n():
    model = SpectralModel(8.0, 1000)
    rho = 1e-3
    v1 = variance_proxy(model, 100, rho)
    v2 = variance_proxy(model, 200, rho)
    assert v2 == pytest.approx(v1 / np.sqrt(2.0), rel=1e-12)
    assert variance_proxy(model, 10**12, rho) < 1e-4


def test_variance_proxy_plug_in_value():
    from dncbands.krr import penalty_schedule

    model = SpectralModel(8.0, 10**4)
    rho = penalty_schedule(2**16, 8.0, 0.5)
    value = variance_proxy(model, 2**16 // 2**8, rho)
    assert np.isfinite(value) and value > 0


def test_variance_proxy_vs_simplified_bound():
    # proxy / (1 / sqrt(n rho^(2/b))) = sqrt(T(rho) rho^(1/b)), which the
    # polynomial-decay fact keeps near 1; stay in the guard range on
    # rho in [1e-4, 1e-1] (below that the constant-free ratio drifts
    # just above 1 because the true constant is (pi/b)/sin(pi/b) > 1)
    model = SpectralModel(8.0, 10**4)
    for rho in np.logspace(-4, -1, 7):
        simplified = 1.0 / np.sqrt(100 * float(rho) ** (2.0 / 8.0))
        ratio = variance_proxy(model, 100, float(rho)) / simplified
        assert 0.01 <= ratio <= 1.0
