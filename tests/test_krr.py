import ctypes
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from dncbands import _blas, krr
from dncbands.kernels import KernelSpec, gram_matrix
from dncbands.krr import (
    FitNumericalError,
    KrrFit,
    Sample,
    _solve_regularized,
    fit,
    penalty_schedule,
    predict,
)
from test_kernels import closed_form_profile


def random_sample(n, d=1, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, d))
    y = np.sin(2 * np.pi * x[:, 0]) + noise * rng.normal(size=n)
    return Sample(x, y)


def test_single_point_closed_form():
    sample = Sample(np.array([[0.2]]), np.array([2.0]))
    fitted = fit(sample, KernelSpec(), 1.0)
    assert fitted.dual_weights[0] == pytest.approx(1.0, rel=1e-12)
    assert predict(fitted, np.array([[0.2]]))[0] == pytest.approx(1.0, rel=1e-12)


def test_zero_responses_give_zero_fit():
    sample = Sample(np.array([[0.1], [0.5], [0.9]]), np.zeros(3))
    fitted = fit(sample, KernelSpec(), 0.3)
    assert np.array_equal(fitted.dual_weights, np.zeros(3))
    assert np.array_equal(predict(fitted, np.linspace(0, 1, 7)), np.zeros(7))


def test_a_given_gram_gives_the_fit_bit_for_bit():
    spec = KernelSpec(nu=2.5, lengthscale=0.4)
    for n in (1, 5, 40):
        sample = random_sample(n, seed=n)
        gram = gram_matrix(spec, sample.covariates)
        given = fit(sample, spec, 1e-3, gram=gram)
        assert given.dual_weights.tobytes() == fit(sample, spec, 1e-3).dual_weights.tobytes()
    with pytest.raises(ValueError, match="gram"):
        fit(sample, spec, 1e-3, gram=np.eye(n - 1))


def test_objective_is_minimized_against_perturbations():
    # direct objective evaluation is the oracle
    sample = random_sample(3, seed=5)
    spec = KernelSpec()
    rho = 0.1
    fitted = fit(sample, spec, rho)
    k = gram_matrix(spec, sample.covariates)
    y = sample.responses
    n = sample.size

    def objective(a):
        r = y - k @ a
        return 0.5 / n * (r @ r) + 0.5 * rho * (a @ k @ a)

    base = objective(fitted.dual_weights)
    for j in range(n):
        for sign in (+1.0, -1.0):
            bumped = fitted.dual_weights.copy()
            bumped[j] += sign * 1e-3
            assert base <= objective(bumped)


def test_predict_matches_naive_loop():
    sample = random_sample(5, d=2, seed=9)
    spec = KernelSpec(nu=2.5, lengthscale=0.6)
    fitted = fit(sample, spec, 0.05)
    points = np.random.default_rng(3).uniform(0, 1, (4, 2))
    got = predict(fitted, points)
    for t in range(4):
        naive = sum(
            fitted.dual_weights[i]
            * closed_form_profile(spec, np.linalg.norm(points[t] - sample.covariates[i]))
            for i in range(5)
        )
        assert got[t] == pytest.approx(naive, rel=1e-12)


def test_predict_zero_weights():
    fitted = KrrFit(KernelSpec(), np.array([[0.1], [0.7]]), np.zeros(2))
    assert np.array_equal(predict(fitted, np.linspace(0, 1, 5)), np.zeros(5))


def test_representer_residual_small_on_random_fits():
    for seed, n, rho in ((0, 8, 1e-3), (1, 40, 1e-5), (2, 64, 6e-4), (3, 16, 10.0)):
        sample = random_sample(n, seed=seed)
        spec = KernelSpec()
        fitted = fit(sample, spec, rho)
        k = gram_matrix(spec, sample.covariates)
        resid = (k + n * rho * np.eye(n)) @ fitted.dual_weights - sample.responses
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(sample.responses)


def test_ridge_limit_predictions_vanish():
    sample = random_sample(12, seed=4)
    spec = KernelSpec()
    rho = 1e8
    fitted = fit(sample, spec, rho)
    margin = np.linalg.norm(sample.responses) / rho
    assert np.max(np.abs(predict(fitted, np.linspace(0, 1, 9)))) <= margin


def test_interpolation_limit_on_well_conditioned_points():
    x = np.array([[0.0], [0.25], [0.5], [0.75], [1.0]])
    y = np.array([0.3, -0.2, 0.9, 0.1, -0.5])
    fitted = fit(Sample(x, y), KernelSpec(nu=0.5, lengthscale=1.0), 1e-10)
    preds = predict(fitted, x)
    assert np.max(np.abs(preds - y) / np.abs(y)) < 1e-4


def test_permutation_equivariance():
    sample = random_sample(20, seed=6)
    rng = np.random.default_rng(11)
    perm = rng.permutation(20)
    shuffled = Sample(sample.covariates[perm], sample.responses[perm])
    spec = KernelSpec()
    points = np.linspace(0, 1, 13)
    a = predict(fit(sample, spec, 1e-3), points)
    b = predict(fit(shuffled, spec, 1e-3), points)
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_penalty_schedule_reference_value():
    # N = 2^16, b = 8, r' = 1/2, c = 1  ->  2^(-16 * 8 / 9)
    assert penalty_schedule(2**16, 8.0, 0.5) == pytest.approx(
        2.0 ** (-128.0 / 9.0), rel=1e-14
    )


def test_penalty_schedule_trivial_and_direct():
    assert penalty_schedule(1, 8.0, 0.5, c=3.7) == 3.7
    # 1024^(-2/5) = 2^(-4)
    assert penalty_schedule(1024, 2.0, 1.0, c=2.0) == pytest.approx(
        2.0 * 2.0**-4, rel=1e-12
    )


def test_penalty_schedule_domain_errors():
    with pytest.raises(ValueError):
        penalty_schedule(1024, 8.0, 0.4)
    with pytest.raises(ValueError):
        penalty_schedule(1024, 8.0, 1.01)
    with pytest.raises(ValueError):
        penalty_schedule(1024, 1.0, 0.75)
    with pytest.raises(ValueError):
        penalty_schedule(1024, 8.0, 0.75, c=0.0)
    with pytest.raises(ValueError):
        penalty_schedule(0, 8.0, 0.75)
    # the undersmoothing endpoint itself is admitted
    assert penalty_schedule(1024, 8.0, 0.5) > 0


def test_fit_rejects_nonpositive_rho():
    sample = random_sample(3)
    with pytest.raises(ValueError):
        fit(sample, KernelSpec(), 0.0)
    with pytest.raises(ValueError):
        fit(sample, KernelSpec(), -0.5)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([[0.1], [0.2]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Sample(np.empty((0, 1)), np.empty(0))


def test_jitter_ladder_exhaustion_reports_attempts():
    # indefinite matrix stands in for a broken Gram; ladder must escalate then fail
    k = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FitNumericalError) as err:
        _solve_regularized(k, np.array([1.0, -1.0]), 1e-6)
    jitters = err.value.jitters
    assert len(jitters) == 4 and jitters[0] == 0.0
    assert jitters[2] == pytest.approx(10 * jitters[1])
    assert jitters[3] == pytest.approx(100 * jitters[1])


def test_factoring_the_transpose_keeps_every_bit(monkeypatch):
    # oracle: the same fits with the C-ordered shifted Gram handed to cho_factor
    systems = (  # n, nu, lengthscale, rho, noise, (factor failures, solves)
        (64, 3.5, 1.0, 1e-3, 1.0, (0, 1)),
        (300, 3.5, 1.0, 1e-4, 1.0, (0, 1)),
        (1024, 3.5, 1.0, 1e-5, 1.0, (0, 1)),
        (64, 2.5, 1.0, 1e-9, 1.0, (0, 2)),  # needs the refinement step
        (300, 3.5, 1.0, 1e-18, 0.0, (1, 1)),  # climbs the jitter ladder
    )
    for n, nu, lengthscale, rho, noise, path in systems:
        sample = random_sample(n, seed=n, noise=noise)
        kernel = KernelSpec(nu=nu, lengthscale=lengthscale)
        got = fit(sample, kernel, rho).dual_weights
        seen = {"failures": 0, "solves": 0}

        def c_ordered_factor(m, **kwargs):
            a = m.T
            assert a.flags.c_contiguous and np.array_equal(a, m)
            try:
                return cho_factor(a, **kwargs)
            except LinAlgError:
                seen["failures"] += 1
                raise

        def counted_solve(*args, **kwargs):
            seen["solves"] += 1
            return cho_solve(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(krr, "cho_factor", c_ordered_factor)
            patch.setattr(krr, "cho_solve", counted_solve)
            want = fit(sample, kernel, rho).dual_weights
        assert (seen["failures"], seen["solves"]) == path
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 64, 300, 1024])
def test_gil_free_cholesky_matches_scipy_bit_for_bit(n):
    sample = random_sample(n, seed=n)
    a = gram_matrix(KernelSpec(), sample.covariates)
    a.flat[:: n + 1] += n * 1e-3
    rhs = (sample.responses, np.column_stack([sample.responses, np.cos(sample.responses)]))
    with _blas.one_thread():
        got = krr.cho_factor(a.T, lower=True)
        want = cho_factor(a.T, lower=True)
        solutions = [(krr.cho_solve(got, b), cho_solve(want, b)) for b in rhs]
    assert got[1] is want[1] is True
    assert np.array_equal(got[0], want[0])
    for got_x, want_x in solutions:
        assert np.array_equal(got_x, want_x)


def test_gil_free_cholesky_rejects_an_indefinite_matrix_and_bad_shapes():
    with pytest.raises(LinAlgError):
        krr.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), lower=True)
    # LAPACK would read past a buffer shorter than the shapes it is told
    for a in (np.ones((2, 3)), np.ones(3), np.empty((0, 0))):
        with pytest.raises(ValueError):
            krr.cho_factor(a, lower=True)
    factor = krr.cho_factor(2.0 * np.eye(3), lower=True)
    for b in (np.ones(2), np.ones((4, 2)), np.float64(1.0)):
        with pytest.raises(ValueError):
            krr.cho_solve(factor, b)


def test_lapack_calls_release_the_gil():
    # ctypes holds the GIL only around functions of a handle with this flag
    lib = _blas._library(_blas._SCIPY_LAPACK)
    assert isinstance(lib, ctypes.CDLL)
    assert not lib._func_flags_ & ctypes._FUNCFLAG_PYTHONAPI
    for fn in (_blas._potrf(), _blas._potrs()):
        assert not fn._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_concurrent_lapack_calls_match_serial_ones():
    # more workers than cores, switching often: the calls run outside the
    # GIL, so they must not share any buffer or state between threads
    systems = []
    for seed in range(8):
        sample = random_sample(96, seed=seed)
        a = gram_matrix(KernelSpec(), sample.covariates)
        a.flat[:: 96 + 1] += 0.1
        systems.append((a, sample.responses))

    def solve(system):
        a, y = system
        return krr.cho_solve(krr.cho_factor(a.T, lower=True), y)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _blas.one_thread():
            serial = [solve(s) for s in systems]
            with ThreadPoolExecutor(max_workers=8) as pool:
                rounds = [pool.submit(lambda: [solve(s) for s in systems]) for _ in range(16)]
                results = [r.result(timeout=60) for r in rounds]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert all(np.array_equal(g, w) for g, w in zip(got, serial))
