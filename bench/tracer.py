"""Span tracing for the benchmark, installed from the benchmark's own code.

No file of the package is edited.  ``Tracer.install`` rebinds, for each
traced function, every name under which a ``qspectra`` module holds it
(``qspectra.cli.detect_dips`` as well as ``qspectra.estimate.detect_dips``,
the package-level re-exports, and the ``models.AMPLITUDES`` dispatch
table), plus the third-party callables as the package binds them:
``least_squares`` and ``find_peaks`` in ``estimate``, ``eigh_tridiagonal``
in ``squid`` and ``ThreadPoolExecutor`` in ``cli``.  ``uninstall`` puts
every original back.

A span is ``(id, parent, op, name, start, end)`` with times from
``perf_counter``; spans stay in memory until ``write`` dumps them.  The
layer of a span is its name up to the first dot, which is the
``qspectra`` module the call enters.  Spans opened in a worker thread
(the sweep thread pool) take the innermost span open on the main thread
as their parent, so a layer's self time stays its duration minus the
union of its children's intervals even when children overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

import qspectra
from qspectra import cli, estimate, io as qio, models, params, squid, svg

LAYERS = ("models", "params", "estimate", "io", "svg", "squid", "cli")
_MODULES = (qspectra, cli, estimate, qio, models, params, squid, svg)
AMPLITUDE_KERNELS = tuple(f.__name__ for f in models.AMPLITUDES.values())
# complex128 output plus the float64 grid read per evaluated point
KERNEL_BYTES_PER_POINT = 16 + 8


class Tracer:
    """Collects spans and counters while installed; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._undo: list[Callable[[], None]] = []
        # output checks run with recording paused so they do not count
        self.enabled = True

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; after(result, args, kwargs)
        runs outside the timed interval to update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, self.op_id, name, start, end))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, op_id: int):
        """Span of one benchmark operation; the spans it causes share op_id."""
        self.op_id = op_id
        span_id = next(self._ids)
        self._main_stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((span_id, 0, op_id, "bench.op", start, end))

    # -- installation -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))
        for kind, value in list(models.AMPLITUDES.items()):
            if value is original:
                models.AMPLITUDES[kind] = wrapper
                self._undo.append(functools.partial(models.AMPLITUDES.__setitem__, kind, original))

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def install(self) -> None:
        count = self.counts

        def add(key, value=1):
            count[key] += value

        def file_bytes(key, position):
            def after(result, args, kwargs):
                add(key, os.path.getsize(args[position]))
            return after

        def dips_after(result, args, kwargs):
            add("estimate.dips_kept", len(result))

        def fit_after(result, args, kwargs):
            add("estimate.fits")
            add("estimate.fit.nfev", int(result.nfev))

        def peaks_after(result, args, kwargs):
            add("estimate.candidates", len(result[0]))

        def read_after(result, args, kwargs):
            add("io.read_spectrum_csv.rows", result[0].n_points)

        def text_bytes(key):
            def after(result, args, kwargs):
                add(key, len(result.encode("utf-8")))
            return after

        def points(name):
            def after(result, args, kwargs):
                add(f"models.{name}.points", int(result.size) if hasattr(result, "size") else 1)
            return after

        def pool(*args, **kwargs):
            if self.enabled:
                workers = kwargs.get("max_workers", args[0] if args else None)
                count["cli.sweep.threads"] = max(count["cli.sweep.threads"], workers or 0)
            return _pool_class(*args, **kwargs)

        _pool_class = cli.ThreadPoolExecutor
        traced_functions = [
            (estimate.detect_dips, "estimate.detect_dips", dips_after),
            (estimate.detect_unity_points, "estimate.detect_unity_points", None),
            (estimate.estimate_report, "estimate.estimate_report", None),
            (estimate.add_measurement_noise, "estimate.add_measurement_noise", None),
            (qio.read_spectrum_csv, "io.read_spectrum_csv", read_after),
            (qio.write_spectrum_csv, "io.write_spectrum_csv",
             file_bytes("io.write_spectrum_csv.bytes", 0)),
            (qio.report_json_text, "io.report_json_text", None),
            (qio.squid_json_text, "io.squid_json_text", text_bytes("io.squid_json_text.bytes")),
            (qio.write_wavefunction_csv, "io.write_wavefunction_csv",
             file_bytes("io.write_wavefunction_csv.bytes", 0)),
            (svg.write_chart, "svg.write_chart", file_bytes("svg.write_chart.bytes", 0)),
            (squid.solve_eigensystem, "squid.solve_eigensystem", None),
            (models.compute_spectrum, "models.compute_spectrum", None),
            (models.analytic_features, "models.analytic_features", None),
            (params.make_frequency_grid, "params.make_frequency_grid", None),
            (cli.main, "cli.main", None),
        ]
        for name in AMPLITUDE_KERNELS:
            fn = getattr(models, name)
            traced_functions.append((fn, f"models.{name}", points(name)))
        for fn, name, after in traced_functions:
            self._rebind(fn, self.span(name, fn, after))
        self._patch(estimate, "least_squares",
                    self.span("estimate.fit", estimate.least_squares, fit_after))
        self._patch(estimate, "find_peaks",
                    self.span("estimate.find_peaks", estimate.find_peaks, peaks_after))
        self._patch(squid, "eigh_tridiagonal",
                    self.span("squid.eigh_tridiagonal", squid.eigh_tridiagonal, None))
        self._patch(params.Spectrum, "__post_init__",
                    self.span("params.Spectrum.init", params.Spectrum.__post_init__, None))
        self._patch(cli, "ThreadPoolExecutor", pool)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, total and self milliseconds, and
        per-layer self milliseconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, parent, _op, _name, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        total_ms: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        for span_id, _parent, _op, name, start, end in self.spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            calls[name] += 1
            total_ms[name] += 1e3 * (end - start)
            self_ms[name] += 1e3 * (end - start - covered)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_ms.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += value
        return {"calls": dict(calls), "ms": dict(total_ms), "self_ms": dict(self_ms),
                "layer_self_ms": layer_self}

    def write(self, path: str) -> None:
        """Dump every span as JSON (times in seconds from the first span)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        records = [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
             "start": s[4] - origin, "end": s[5] - origin}
            for s in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, "counts": dict(self.counts)}, handle)


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered
