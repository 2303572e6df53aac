import importlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import dncbands
from dncbands import _blas, bootstrap, dnc
from dncbands.dnc import PartitionFitError, fit_all_partitions, make_partition_plan
from dncbands.kernels import KernelSpec
from dncbands.krr import Sample
from dncbands.simulation import DgpSpec, run_coverage_row

CALLER_THREADS = 3  # differs from the pinned 1 on any machine


@pytest.fixture
def controls():
    """The resolved (get, set) pairs, each set to CALLER_THREADS for the test."""
    found = _blas._controls()
    if not found:
        pytest.skip("no bundled OpenBLAS exports the thread-count symbols")
    before = [get() for get, _ in found]
    for _, set_ in found:
        set_(CALLER_THREADS)
    try:
        yield found
    finally:
        for (_, set_), count in zip(found, before):
            set_(count)


def counts(found):
    return [get() for get, _ in found]


def small_fit_args():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (16, 1))
    sample = Sample(x, np.sin(2 * np.pi * x[:, 0]) + rng.normal(size=16))
    return sample, make_partition_plan(16, 4, seed=1), KernelSpec(), 1e-3, np.linspace(0, 1, 3)


@pytest.mark.parametrize("threads", [1, 2])
def test_fits_run_on_one_blas_thread_and_restore_the_callers_count(
    controls, monkeypatch, threads
):
    seen = []
    real_fit = dnc.krr.fit

    def recording_fit(sub, kernel, rho, gram=None):
        seen.append(counts(controls))
        return real_fit(sub, kernel, rho, gram=gram)

    monkeypatch.setattr(dnc.krr, "fit", recording_fit)
    fit_all_partitions(*small_fit_args(), threads=threads)
    assert seen == [[1] * len(controls)] * 4
    assert counts(controls) == [CALLER_THREADS] * len(controls)


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_fit_restores_the_callers_count(controls, monkeypatch, threads):
    def failing_fit(sub, kernel, rho):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(dnc.krr, "fit", failing_fit)
    with pytest.raises(PartitionFitError):
        fit_all_partitions(*small_fit_args(), threads=threads)
    assert counts(controls) == [CALLER_THREADS] * len(controls)


def small_row(threads):
    return run_coverage_row(DgpSpec(16), 4, (2, 3), 0.1, 50, 3, seed=2, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_coverage_draws_run_on_one_blas_thread(controls, monkeypatch, threads):
    seen = []
    real_draws = bootstrap.empirical_draws

    def recording_draws(matrix, n_replicates, seed):
        seen.append(counts(controls))
        return real_draws(matrix, n_replicates, seed)

    monkeypatch.setattr(bootstrap, "empirical_draws", recording_draws)
    small_row(threads)
    assert seen == [[1] * len(controls)] * 3
    assert counts(controls) == [CALLER_THREADS] * len(controls)


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_trial_restores_the_callers_count(controls, monkeypatch, threads):
    def failing_draws(matrix, n_replicates, seed):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bootstrap, "empirical_draws", failing_draws)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        small_row(threads)
    assert counts(controls) == [CALLER_THREADS] * len(controls)


def test_nested_entry_does_not_restore_early(controls):
    with _blas.one_thread():
        with _blas.one_thread():
            pass
        assert counts(controls) == [1] * len(controls)
    assert counts(controls) == [CALLER_THREADS] * len(controls)


def test_no_resolved_library_is_a_no_op(controls, monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: ())
    with _blas.one_thread():
        assert counts(controls) == [CALLER_THREADS] * len(controls)
    assert counts(controls) == [CALLER_THREADS] * len(controls)


def test_overlapping_entries_from_many_threads(controls):
    # more workers than cores, switching often: a lost update to the depth
    # count would unpin a thread still inside or leave the caller pinned
    inside = []
    start = threading.Barrier(16)

    def worker():
        start.wait(timeout=10)
        for _ in range(200):
            with _blas.one_thread():
                inside.append(counts(controls))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(16)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 16 * 200
    assert all(c == [1] * len(controls) for c in inside)
    assert counts(controls) == [CALLER_THREADS] * len(controls)


def test_scipys_lapack_is_opened_from_the_modules_own_file():
    # the same file, so the same dpotrf/dpotrs and the same bits
    lib = _blas._library(_blas._SCIPY_LAPACK)
    assert os.path.samefile(lib._name, importlib.import_module(_blas._SCIPY_LAPACK).__file__)


def test_a_bands_run_loads_neither_scipy_special_nor_scipy_linalg(tmp_path):
    # both load scipy's array-API layer, several tenths of a second of start-up
    rng = np.random.default_rng(21)
    data = tmp_path / "data.csv"
    x = rng.uniform(size=64)
    y = np.sin(6 * x) + rng.normal(size=64)
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    data.write_text("x1,y\n" + rows)
    argv = ["bands", "--data", str(data), "--out", str(tmp_path / "out"),
            "--partitions", "4", "--prediction-count", "5", "--threads", "2"]
    script = (
        "import sys\n"
        "from dncbands import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(dncbands.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr
    assert (tmp_path / "out" / "bands.csv").is_file()
