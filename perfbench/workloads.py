"""The benchmark workloads.

Each is a closed loop: one client issues one op at a time and waits for
it.  ``op(k, tracer)`` runs op input ``k`` (untraced when ``tracer`` is
None) and returns ``(result, trials, peak_rss_kb)``.  ``key(k)`` names the
inputs of op ``k``: two ops with the same key must return equal results,
which is how traced and untraced runs are checked against each other.
``check(result)`` validates a single result.  A workload whose ops run
in a child process traces them there; for the others the caller installs
the tracer around the op.  Every input is generated
from the workload seed; the program only ever sees generated data.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import subprocess
import sys
import threading

import numpy as np

from dncbands import simulation
from dncbands.kernels import KernelSpec

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 150.0


def _op_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class DeskGrid:
    """One ``run_coverage_grid`` call at desk scale, trials across 2 threads."""

    child_process = False
    GRID_P = (2**4, 2**6)
    GRID_T = (2**2, 2**6)
    TRIALS = 8  # per cell

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dgp = simulation.DgpSpec(2**12)
        # lengthscale 0.2 is where the bands are valid, so hit counts mean something
        self.kernel = KernelSpec(nu=3.5, lengthscale=0.2)

    def key(self, k):
        return k

    def op(self, k, tracer):
        report = simulation.run_coverage_grid(
            self.dgp, self.GRID_P, self.GRID_T, 0.05, 1000, self.TRIALS,
            _op_seed(self.seed, k), kernel=self.kernel, scheme="empirical", threads=2,
        )
        cells = tuple((c.partitions, c.points, c.trials, c.hits) for c in report.cells)
        return cells, sum(c[2] for c in cells), _self_peak_rss_kb()

    def check(self, cells) -> bool:
        expected = [(p, t) for p in self.GRID_P for t in self.GRID_T]
        return [c[:2] for c in cells] == expected and all(
            n == self.TRIALS and 0 <= hits <= n for _, _, n, hits in cells
        )


class CliBands:
    """One fresh ``dncbands bands`` process on a 2^16-row CSV.

    Every op reads the same data with the same seed, so every op must
    write the same bytes.  A traced op runs the CLI under ``cli_child.py``,
    which installs the tracer in the child and dumps its spans.
    """

    child_process = True
    ARGS = ("--partitions", "64", "--prediction-count", "512", "--threads", "2")
    ROWS = 512

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.data = os.path.join(workdir, "data.csv")
        self.config = os.path.join(workdir, "bands.cfg")
        sample, _, _ = simulation.generate_trial(
            simulation.DgpSpec(2**16), 1, np.random.SeedSequence([seed])
        )
        with open(self.data, "w", encoding="utf-8") as fh:
            fh.write("x1,y\n")
            fh.writelines(
                f"{float(x)!r},{float(y)!r}\n"
                for x, y in zip(sample.covariates[:, 0], sample.responses)
            )
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("bootstrap.scheme = multiplier\n")

    def key(self, k):
        return 0

    def op(self, k, tracer):
        out = os.path.join(self.workdir, f"op{k}")
        spans = os.path.join(self.workdir, f"spans{k}.json.gz")
        argv = ["bands", "--data", self.data, "--config", self.config, "--out", out,
                "--seed", str(_op_seed(self.seed, 0)), *self.ARGS]
        if tracer is None:
            cmd = [sys.executable, "-m", "dncbands.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans, *argv]
        code, peak_kb = run_child(cmd, os.path.join(self.workdir, "stderr.txt"))
        if code != 0:
            raise RuntimeError(f"dncbands bands exited with code {code}")
        if tracer is not None:
            tracer.merge(spans, tracer.op)
            os.remove(spans)
        with open(os.path.join(out, "bands.csv"), "rb") as fh:
            content = fh.read()
        shutil.rmtree(out)
        return content, 1, peak_kb

    def check(self, content) -> bool:
        lines = content.decode("utf-8").splitlines()
        if len(lines) != self.ROWS + 2 or not lines[0].startswith("# config_hash="):
            return False
        if lines[1] != "t,x_tilde,f_bar,lower,upper":
            return False
        for t, line in enumerate(lines[2:]):
            fields = line.split(",")
            values = [float(v) for v in fields[1:]]
            if int(fields[0]) != t or len(values) != 4:
                return False
            if not all(math.isfinite(v) for v in values) or not values[2] <= values[3]:
                return False
        return True


def child_env() -> dict:
    """Environment for a child interpreter that imports the checkout's src/."""
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, stderr_path) -> tuple[int, int]:
    """Run ``cmd`` to completion; return its exit code and peak RSS in KB."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read())
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {
    "desk_grid": DeskGrid,
    "cli_bands": CliBands,
}
