"""Per-layer spans and counters for one traced CLI call.

The library has no stage timers of its own, so the tracer wraps public
functions at each module boundary from outside.  Every name is replaced in
each isoslope module whose globals hold it, since that is where a caller
looks it up (`from .hyper import slopes_at_point` binds a name in scan and in
cli); the checkpoint counters come from an `open` placed in scan's globals.

A span's self time is its duration minus the part of it covered by its
child spans.  Spans opened on a worker thread with nothing open on that
thread are children of the innermost span open on the main thread, which
is the scan waiting for its thread pool.  Times are summed over threads, so
a layer's total can exceed the wall time of a threaded scan.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

FUNCTIONS = (
    ("cli.main", "isoslope.cli", "main"),
    ("scan.scan_family", "isoslope.scan", "scan_family"),
    ("scan.point_record", "isoslope.scan", "point_record"),
    ("scan.verify_triple_gap_uniqueness", "isoslope.scan", "verify_triple_gap_uniqueness"),
    ("scan.CounterexampleReport.to_bytes", "isoslope.scan", "CounterexampleReport.to_bytes"),
    ("hyper.slopes_at_point", "isoslope.hyper", "slopes_at_point"),
    ("hyper.char_poly_valuations", "isoslope.hyper", "char_poly_valuations"),
    ("hyper.frobenius_trace", "isoslope.hyper", "frobenius_trace"),
    ("hyper.unit_root_eval", "isoslope.hyper", "unit_root_eval"),
    ("hyper.closed_points", "isoslope.hyper", "closed_points"),
    ("polygon.lower_hull", "isoslope.polygon", "lower_hull"),
    ("convolution.cyclic_convolve", "isoslope.convolution", "cyclic_convolve"),
    ("arith.field_create", "isoslope.arith", "field_create"),
    ("arith.embed_element", "isoslope.arith", "embed_element"),
    ("arith.teichmuller_table", "isoslope.arith", "teichmuller_table"),
)

COUNTERS = {
    "hyper.frobenius_trace.cold_calls": "count",
    "hyper.slopes_at_point.fast_path": "count",
    "convolution.cyclic_convolve.elems": "count",
    "convolution.cyclic_convolve.input_bits": "bit",
    "arith.field_create.new_fields": "count",
    "arith.field_create.new_elems": "count",
    "scan.report_bytes": "B",
    "scan.checkpoint_bytes_read": "B",
    "scan.checkpoint_bytes_written": "B",
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric: seconds for times, else the counter's."""
    return "s" if metric.endswith("_s") else COUNTERS.get(metric, "count")


class _Span:
    __slots__ = ("start", "children", "cold")

    def __init__(self, start):
        self.start = start
        self.children = []  # (start, end) of child spans, any thread
        self.cold = False   # a convolution ran or a field was built under it


def _covered(intervals, lo, hi) -> int:
    total, reach = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self.stats = {name: [0, 0, 0] for name, _, _ in FUNCTIONS}  # calls, total ns, self ns
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._fields = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name, fn, before=None, after=None):
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack and stack is not self._main_stack
                else None)
            span = _Span(now())
            if before is not None:
                before(span, args)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - span.start
                own = duration - _covered(span.children, span.start, end)
                if parent is not None:
                    parent.children.append((span.start, end))
                    if span.cold and stack and stack[-1] is parent:
                        parent.cold = True
                with self._lock:
                    row = self.stats[name]
                    row[0] += 1
                    row[1] += duration
                    row[2] += own
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # -- counters hooked on single layers ---------------------------------

    def _convolve_before(self, span, args):
        a, _, modulus = args[:3]
        span.cold = True
        with self._lock:
            self.counters["convolution.cyclic_convolve.elems"] += len(a)
            self.counters["convolution.cyclic_convolve.input_bits"] += \
                2 * len(a) * modulus.bit_length()

    def _field_after(self, span, args, field):
        with self._lock:
            if id(field) in self._fields:
                return
            self._fields.add(id(field))
            self.counters["arith.field_create.new_fields"] += 1
            self.counters["arith.field_create.new_elems"] += args[0] ** args[1]
        stack = self._stack()
        if stack:
            stack[-1].cold = True

    def _trace_after(self, span, args, result):
        if span.cold:
            self._count("hyper.frobenius_trace.cold_calls")

    def _slopes_after(self, span, args, report):
        if report.fast_path:
            self._count("hyper.slopes_at_point.fast_path")

    def _to_bytes_after(self, span, args, payload):
        self._count("scan.report_bytes", len(payload))

    def _open(self, *args, **kwargs):
        return _CountingFile(open(*args, **kwargs), self)

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "hyper.frobenius_trace": (None, self._trace_after),
            "hyper.slopes_at_point": (None, self._slopes_after),
            "convolution.cyclic_convolve": (self._convolve_before, None),
            "arith.field_create": (None, self._field_after),
            "scan.CounterexampleReport.to_bytes": (None, self._to_bytes_after),
        }
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "isoslope" or name.startswith("isoslope.")]
        for name, module_name, attr in FUNCTIONS:
            before, after = hooks.get(name, (None, None))
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), before, after))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        sys.modules["isoslope.scan"].open = self._open

    def metrics(self) -> dict:
        out = {}
        with self._lock:
            for name, (calls, total, own) in self.stats.items():
                out[f"{name}.calls"] = calls
                out[f"{name}.total_s"] = total / 1e9
                out[f"{name}.self_s"] = own / 1e9
            out.update(self.counters)
        return out


class _CountingFile:
    """File proxy that counts the encoded bytes read and written."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __iter__(self):
        for line in self._fh:
            self._tracer._count("scan.checkpoint_bytes_read", len(line.encode()))
            yield line

    def read(self, *args):
        data = self._fh.read(*args)
        self._tracer._count("scan.checkpoint_bytes_read", len(data.encode()))
        return data

    def readline(self, *args):
        line = self._fh.readline(*args)
        self._tracer._count("scan.checkpoint_bytes_read", len(line.encode()))
        return line

    def write(self, text):
        self._tracer._count("scan.checkpoint_bytes_written", len(text.encode()))
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)
