#!/usr/bin/env python3
"""Benchmark for dncbands: one workload per invocation.

    python3 perfbench/run.py --workload desk_grid --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
With ``--trace 0`` it measures set-up (fresh-interpreter import time), then
runs ops of the workload back to back for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
ops and reports the per-layer metrics derived from the traced ones, plus
the tracing overhead.  Every op's output is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3  # timed fresh imports, after one untimed one that writes bytecode
MIN_MEASURED_OPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Op(NamedTuple):
    """One timed op."""

    op_id: int
    traced: bool
    seconds: float
    trials: int
    peak_rss_kb: int
    ok: bool


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(env) -> float:
    """Median wall time of a fresh interpreter importing dncbands."""
    cmd = [sys.executable, "-c", "import dncbands"]
    times = []
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        if rep:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def schedule(trace: int):
    """(op input, traced) pairs; the first is the untimed warm-up.

    The warm-up runs in the other mode than the timed ops of the first
    input, so every run compares a traced and an untraced result.  With
    tracing on, timed ops alternate untraced/traced on the same input.
    """
    yield 0, trace == 0
    if trace == 0:
        k = 0
        while True:
            yield k, False
            k += 1
    yield 0, True
    k = 1
    while True:
        yield k, False
        yield k, True
        k += 1


def run_ops(workload, tracer, seconds: float, trace: int):
    """Closed loop over the schedule; returns the timed op records."""
    records = []
    reference = {}
    attempted = failed = 0
    start = time.perf_counter()
    for op_id, (k, traced) in enumerate(schedule(trace)):
        timed = [r.seconds for r in records if r.ok]
        if len(records) >= MIN_MEASURED_OPS and (
            time.perf_counter() - start + (statistics.median(timed) if timed else 0.0)
            > seconds
        ):
            break
        op_tracer = (tracer if trace else Tracer()) if traced else None
        installed = op_tracer is not None and not workload.child_process
        ok = False
        trials = peak_kb = 0
        t0 = time.perf_counter()
        try:
            if op_tracer is not None:
                op_tracer.op = op_id
            if installed:
                op_tracer.install()
            try:
                result, trials, peak_kb = workload.op(k, op_tracer)
            finally:
                if installed:
                    op_tracer.uninstall()
            elapsed = time.perf_counter() - t0
            ok = workload.check(result)
            key = workload.key(k)
            if key in reference:
                ok = ok and reference[key] == result
            else:
                reference[key] = result
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - t0
            print(f"# op {op_id} (input {k}, traced={traced}) raised {exc!r}",
                  file=sys.stderr)
        else:
            if not ok:
                print(f"# op {op_id} (input {k}, traced={traced}) failed its check",
                      file=sys.stderr)
        attempted += 1
        failed += not ok
        if op_id > 0:
            records.append(Op(op_id, traced, elapsed, trials, peak_kb, ok))
        else:
            print(f"# warm-up op: {elapsed:.4f} s")
    return records, attempted, failed


def end_to_end(records, setup_s: float) -> dict:
    good = [r for r in records if r.ok]
    durations = [r.seconds for r in good]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(durations),
        "trials_per_s": sum(r.trials for r in good) / sum(durations),
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in good) / 1024.0,
    }


def traced_layers(records, tracer) -> dict:
    traced = [r for r in records if r.ok and r.traced]
    plain = [r for r in records if r.ok and not r.traced]
    metrics = layer_metrics(tracer, [r.op_id for r in traced])
    traced_p50 = statistics.median(r.seconds for r in traced)
    plain_p50 = statistics.median(r.seconds for r in plain)
    metrics["trace.op_s_p50"] = traced_p50
    metrics["trace.untraced_op_s_p50"] = plain_p50
    metrics["trace.overhead_ratio"] = traced_p50 / plain_p50
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dncbands", "__init__.py")):
        print(f"error: no dncbands package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dncbands

    if os.path.dirname(os.path.abspath(dncbands.__file__)) != os.path.join(SRC, "dncbands"):
        print(f"error: imported dncbands from {dncbands.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, child_env

    facts = machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer()
    try:
        setup_s = measure_setup(child_env()) if args.trace == 0 else None
        workload = WORKLOADS[args.workload](args.seed, workdir)
        records, attempted, failed = run_ops(workload, tracer, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if failed == attempted:
        print("error: every op failed", file=sys.stderr)
        return 1
    print(f"# timed ops: {len(records)}, seconds: "
          + " ".join(f"{r.seconds:.4f}{'t' if r.traced else ''}" for r in records))
    if args.trace:
        values = traced_layers(records, tracer)
        wanted = spec["per_layer"]
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    else:
        values = end_to_end(records, setup_s)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
