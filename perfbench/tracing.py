"""In-memory spans around calls into the dncbands modules, and the
per-layer metrics derived from them.

Tracing rebinds module attributes.  Every caller inside the package looks
these names up at call time (``krr.fit``, ``dnc.fit_all_partitions``,
``bootstrap_mod.empirical_draws``, ...), so a wrapper set on the module is
seen by all of them and the package itself is left unchanged.  The thread
pools in ``dnc`` and ``simulation`` are swapped for one that runs each task
in a copy of the submitter's context, so a span opened in a worker thread
knows the span that caused it.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import contextvars
import gzip
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks see the submitter's current span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _bound(fn, args, kwargs) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


class Tracer:
    """Spans and work counts of one benchmark run, keyed by op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(Counter)  # op id -> Counter
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        self._saved: list = []

    def add(self, amounts: dict) -> None:
        with self._lock:
            self.counts[self.op].update(amounts)

    @contextmanager
    def span(self, name: str):
        parent = self._current.get()
        sid = next(self._ids)
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), self.op)
            )

    def _traced(self, fn, name, after):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                self.add(after(fn, args, kwargs, result, time.perf_counter() - start))
            return result

        return traced

    def _counted(self, fn, name):
        def counted(*args, **kwargs):
            self.add({name: 1})
            return fn(*args, **kwargs)

        return counted

    def _set(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported dncbands package."""
        from dncbands import bands, bootstrap, cli, dnc, krr, simulation

        if self._saved:
            raise RuntimeError("tracer is already installed")
        spans = (
            (krr, "gram_matrix", "kernels.gram_matrix", _entries),
            (krr, "cross_matrix", "kernels.cross_matrix", _entries),
            (krr, "fit", "krr.fit", None),
            (krr, "predict", "krr.predict", None),
            (dnc, "fit_all_partitions", "dnc.fit_all_partitions", _worker_slots),
            (bootstrap, "empirical_draws", "bootstrap.empirical_draws", _row_reads),
            (bootstrap, "multiplier_draws", "bootstrap.multiplier_draws", _row_reads),
            (bands, "calibrate", "bands.calibrate", _calibration),
            (bands, "save_bands_csv", "bands.save_bands_csv", None),
            (simulation, "generate_trial", "simulation.generate_trial", None),
            (simulation, "run_coverage_cell", "simulation.run_coverage_cell", _trials),
            (simulation, "run_coverage_grid", "simulation.run_coverage_grid", None),
            (cli, "read_data_csv", "cli.read_data_csv", _rows_read),
        )
        for module, attr, name, after in spans:
            self._set(module, attr, self._traced(getattr(module, attr), name, after))
        for attr in ("cho_factor", "cho_solve"):
            self._set(krr, attr, self._counted(getattr(krr, attr), f"krr.{attr}"))
        for module in (dnc, simulation):
            self._set(module, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self, path) -> None:
        """Write spans and counts as gzipped JSON."""
        payload = {
            "spans": [astuple(s) for s in self.spans],
            "counts": [[op, dict(c)] for op, c in self.counts.items()],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)

    def merge(self, path, op: int) -> None:
        """Add a child process's dump, re-labelled as op ``op``."""
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
        offset = next(self._ids)
        top = 0
        for sid, name, start, end, parent, thread, _ in payload["spans"]:
            top = max(top, sid)
            parent = None if parent is None else parent + offset
            self.spans.append(Span(sid + offset, name, start, end, parent, thread, op))
        self._ids = itertools.count(offset + top + 1)
        for _, amounts in payload["counts"]:
            self.counts[op].update(amounts)


# Work counts, computed from argument and result shapes at the boundary.

def _entries(fn, args, kwargs, result, duration):
    return {"kernels.entries": int(result.size)}


def _worker_slots(fn, args, kwargs, result, duration):
    call = _bound(fn, args, kwargs)
    count = call["plan"].count
    workers = min(call["threads"], count) if call["threads"] > 1 and count > 1 else 1
    return {"dnc.worker_slot_s": duration * workers}


def _row_reads(fn, args, kwargs, result, duration):
    b = result.replicates
    return {"bootstrap.replicates": b, "bootstrap.row_reads": b * args[0].partitions}


def _calibration(fn, args, kwargs, result, duration):
    b, t = args[0].deltas.shape
    return {
        "bands.cells": b * t,
        "bands.unreachable": int(not result.tail_reachable),
        "bands.degenerate": int(result.degenerate.sum()),
    }


def _trials(fn, args, kwargs, result, duration):
    return {"simulation.trials": result[1]}


def _rows_read(fn, args, kwargs, result, duration):
    return {"cli.read_rows": int(result[0].shape[0])}


def self_time(span: Span, children) -> float:
    """Span duration minus the union of its children's intervals.

    Children may overlap (they can run on several threads), and a child
    interval is clipped to its parent before the union is taken.
    """
    pieces = sorted(
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    )
    covered = 0.0
    lo = hi = None
    for a, b in pieces:
        if hi is None or a > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        covered += hi - lo
    return span.duration - covered


def op_layers(spans, counts: Counter) -> dict:
    """Every layer metric for the spans and counts of one op.

    A layer the op never entered reads 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def busy(*names):
        return sum(s.duration for n in names for s in by_name[n])

    def own(*names):
        return sum(self_time(s, children[s.sid]) for n in names for s in by_name[n])

    def ratio(a, b):
        return a / b if b else 0.0

    fits = len(by_name["krr.fit"])
    fit_all_calls = len(by_name["dnc.fit_all_partitions"])
    kernel_s = busy("kernels.gram_matrix", "kernels.cross_matrix")
    return {
        "kernels.gram_s": busy("kernels.gram_matrix"),
        "kernels.cross_s": busy("kernels.cross_matrix"),
        "kernels.entries": counts["kernels.entries"],
        "kernels.ns_per_entry": 1e9 * ratio(kernel_s, counts["kernels.entries"]),
        "krr.solve_s": own("krr.fit"),
        "krr.predict_s": own("krr.predict"),
        "krr.factor_attempts_per_fit": ratio(counts["krr.cho_factor"], fits),
        "krr.solves_per_fit": ratio(counts["krr.cho_solve"], fits),
        "dnc.fit_all_s": busy("dnc.fit_all_partitions"),
        "dnc.self_s": own("dnc.fit_all_partitions"),
        "dnc.partition_fits": fits,
        "dnc.fit_all_calls": fit_all_calls,
        "dnc.parallel_efficiency": ratio(
            busy("krr.fit", "krr.predict"), counts["dnc.worker_slot_s"]
        ),
        "bootstrap.draws_s": busy("bootstrap.empirical_draws", "bootstrap.multiplier_draws"),
        "bootstrap.replicates": counts["bootstrap.replicates"],
        "bootstrap.row_reads": counts["bootstrap.row_reads"],
        "bands.calibrate_s": busy("bands.calibrate"),
        "bands.cells": counts["bands.cells"],
        "bands.unreachable": counts["bands.unreachable"],
        "bands.degenerate": counts["bands.degenerate"],
        "simulation.generate_s": busy("simulation.generate_trial"),
        "simulation.self_s": own("simulation.run_coverage_grid", "simulation.run_coverage_cell"),
        "simulation.trials": counts["simulation.trials"],
        "simulation.fit_all_calls_per_trial": ratio(fit_all_calls, counts["simulation.trials"]),
        "cli.read_s": busy("cli.read_data_csv"),
        "cli.read_rows": counts["cli.read_rows"],
        "cli.write_s": busy("bands.save_bands_csv"),
        "cli.self_s": own("cli.main"),
    }


def layer_metrics(tracer: Tracer, ops) -> dict:
    """Median over the given ops of each per-op layer metric."""
    per_op = defaultdict(list)
    for s in tracer.spans:
        per_op[s.op].append(s)
    rows = [op_layers(per_op[op], tracer.counts[op]) for op in ops]
    if not rows:
        return op_layers([], Counter())
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
