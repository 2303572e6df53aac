"""Tests of the benchmark's own arithmetic and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from tracing import Span, Tracer, op_layers, self_time  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _span(sid, name, start, end, parent=None, op=1):
    return Span(sid, name, start, end, parent, 0, op)


def test_self_time_subtracts_union_of_clipped_children():
    parent = _span(1, "p", 0.0, 10.0)
    children = [
        _span(2, "a", 1.0, 3.0, 1),
        _span(3, "b", 2.0, 5.0, 1),  # overlaps a: a parallel worker
        _span(4, "c", 8.0, 12.0, 1),  # runs past the parent: clipped at 10
    ]
    # covered: [1, 5] and [8, 10], 6 s in all
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_self_times_on_a_hand_built_tree():
    spans = [
        _span(1, "dnc.fit_all_partitions", 0.0, 10.0),
        _span(2, "krr.fit", 0.0, 4.0, 1),
        _span(3, "kernels.gram_matrix", 0.5, 2.0, 2),
        _span(4, "krr.predict", 4.0, 5.0, 1),
        _span(5, "kernels.cross_matrix", 4.0, 4.75, 4),
        _span(6, "krr.fit", 3.0, 9.0, 1),  # second worker thread
        _span(7, "kernels.gram_matrix", 3.0, 7.0, 6),
    ]
    counts = Counter({"kernels.entries": 1000, "krr.cho_factor": 2, "krr.cho_solve": 2,
                      "dnc.worker_slot_s": 20.0})
    m = op_layers(spans, counts)
    assert m["kernels.gram_s"] == pytest.approx(5.5)
    assert m["kernels.cross_s"] == pytest.approx(0.75)
    assert m["kernels.ns_per_entry"] == pytest.approx(6.25e9 / 1000)
    assert m["krr.solve_s"] == pytest.approx((4.0 - 1.5) + (6.0 - 4.0))
    assert m["krr.predict_s"] == pytest.approx(0.25)
    assert m["dnc.fit_all_s"] == pytest.approx(10.0)
    assert m["dnc.self_s"] == pytest.approx(1.0)  # children cover [0, 9]
    assert m["dnc.partition_fits"] == 2
    assert m["dnc.parallel_efficiency"] == pytest.approx(11.0 / 20.0)
    assert m["krr.factor_attempts_per_fit"] == 1.0
    assert m["cli.read_s"] == 0.0


def _records():
    return [run.Op(1, False, 2.0, 4, 2048, True), run.Op(2, True, 3.0, 4, 2048, True),
            run.Op(3, False, 2.5, 4, 4096, True), run.Op(4, True, 3.5, 4, 4096, True)]


def test_end_to_end_names_match_benchmark_json():
    values = run.end_to_end(_records(), 1.0)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["op_s_p50"] == pytest.approx(2.75)
    assert values["trials_per_s"] == pytest.approx(16 / 11.0)
    assert values["peak_rss_mb"] == pytest.approx(3.0)


def test_per_layer_names_match_benchmark_json():
    tracer = Tracer()
    tracer.spans.append(_span(1, "krr.fit", 0.0, 1.0, op=2))
    values = run.traced_layers(_records(), tracer)
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["trace.overhead_ratio"] == pytest.approx(3.25 / 2.25)


def test_tracer_counts_a_threaded_fit_and_restores_the_package(tmp_path):
    import numpy as np

    from dncbands import dnc, krr
    from dncbands.kernels import KernelSpec

    original_fit = krr.fit
    rng = np.random.default_rng(0)
    sample = krr.Sample(rng.uniform(size=(64, 1)), rng.normal(size=64))
    plan = dnc.make_partition_plan(64, 4, 1)
    points = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    plain = dnc.fit_all_partitions(sample, plan, KernelSpec(), 1e-3, points, threads=2)

    tracer = Tracer()
    tracer.op = 7
    tracer.install()
    try:
        traced = dnc.fit_all_partitions(sample, plan, KernelSpec(), 1e-3, points, threads=2)
    finally:
        tracer.uninstall()
    assert krr.fit is original_fit
    assert np.array_equal(plain.values, traced.values)

    (root,) = [s for s in tracer.spans if s.name == "dnc.fit_all_partitions"]
    fits = [s for s in tracer.spans if s.name == "krr.fit"]
    assert len(fits) == 4 and all(s.parent == root.sid for s in fits)
    m = op_layers(tracer.spans, tracer.counts[7])
    assert m["kernels.entries"] == 4 * 16 * 16 + 4 * 8 * 16
    assert m["krr.factor_attempts_per_fit"] == 1.0
    assert m["krr.solves_per_fit"] == 1.0
    assert m["dnc.fit_all_calls"] == 1

    path = tmp_path / "spans.json.gz"
    tracer.dump(path)
    merged = Tracer()
    merged.spans.append(_span(1, "op", 0.0, 1.0, op=3))
    merged.merge(path, 3)
    assert len({s.sid for s in merged.spans}) == len(tracer.spans) + 1
    assert op_layers([s for s in merged.spans if s.op == 3], merged.counts[3]) == m
