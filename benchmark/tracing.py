"""Spans around the calls into each hotlanes module, recorded from outside.

``Tracer.install`` replaces the public functions the program calls with
wrappers, in every hotlanes module that holds a reference to them (so
``scenario.speed``, ``bathtub.speed`` and ``nfd.speed`` are all seen), and
``restore`` puts the originals back.  A function the program no longer has
is skipped: it reports 0 calls, not an error.

Each wrapper records one span (name, start, end, parent span, operation id)
per call into per-thread column arrays, so worker threads never contend and
the threaded ``compare_hov_hot`` nests under the span that started it.
Spans stay in memory and are written out once, at the end.
"""

import importlib
import json
import os
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from itertools import count

# Span name -> (module, function) of the public functions the program calls.
# A span is named after the module that defines the function.
TARGETS = {
    "nfd.speed": ("nfd", "speed"),
    "nfd.classify_phase": ("nfd", "classify_phase"),
    "bathtub.density": ("bathtub", "density"),
    "bathtub.exit_rate": ("bathtub", "exit_rate"),
    "bathtub.step": ("bathtub", "step"),
    "bathtub.travel_time_gap": ("bathtub", "travel_time_gap"),
    "lane_choice.ue_share": ("lane_choice", "ue_share"),
    "lane_choice.logit_share": ("lane_choice", "logit_share"),
    "lane_choice.split_inflow": ("lane_choice", "split_inflow"),
    "controller.toll": ("controller", "toll"),
    "controller.update": ("controller", "update"),
    "scenario.run": ("scenario", "run"),
    "scenario.compare_hov_hot": ("scenario", "compare_hov_hot"),
    "scenario.metrics": ("scenario", "metrics"),
    "scenario.write_csv": ("scenario", "write_csv"),
    "scenario.read_csv": ("scenario", "read_csv"),
    "scenario.records_to_observations": ("scenario", "records_to_observations"),
    "scenario.constant_equilibrium": ("scenario", "constant_equilibrium"),
    "analysis.check_a1": ("analysis", "check_a1"),
    "analysis.gap_sensitivities": ("analysis", "gap_sensitivities"),
    "analysis.stability_check": ("analysis", "stability_check"),
    "estimation.estimate_cdf_point": ("estimation", "estimate_cdf_point"),
    "estimation.estimate_logit_vot": ("estimation", "estimate_logit_vot"),
    "estimation.pool_cdf_points": ("estimation", "pool_cdf_points"),
    "presets.apply_overrides": ("presets", "apply_overrides"),
    "cli.main": ("cli", "main"),
}


def _written_bytes(result, args, kwargs):
    return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else ""))


# Span name -> f(result, args, kwargs) giving the amount of work a call did.
SIZERS = {
    "scenario.run": lambda result, args, kwargs: len(result),
    "scenario.read_csv": lambda result, args, kwargs: len(result),
    "scenario.write_csv": _written_bytes,
}


class _Buffer:
    """Column arrays of the spans one thread closed, plus its open-span stack."""

    def __init__(self, n_names: int):
        self.stack: list[int] = []
        self.names = array("B")
        self.ops = array("H")
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = [0] * n_names
        self.sizes = [0] * n_names


class Tracer:
    def __init__(self):
        self.names = list(TARGETS) + ["setup", "op"]
        self._nid = {name: i for i, name in enumerate(self.names)}
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._ids = count()
        self._patched: list[tuple[object, str, object]] = []
        self._main = self._buffer()
        self.op = 0  # id stamped on every span; 0 is set-up

    def _buffer(self) -> _Buffer:
        try:
            return self._tls.buf
        except AttributeError:
            buf = self._tls.buf = _Buffer(len(self.names))
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _root(self) -> int:
        # A worker thread's first span nests under whatever the main thread has
        # open: that thread is blocked in the call while the worker runs.
        stack = self._main.stack
        return stack[-1] if stack else -1

    def _wrap(self, fn, nid: int, sizer):
        tracer, tls, clock, next_id = self, self._tls, time.perf_counter, self._ids.__next__

        def traced(*args, **kwargs):
            try:
                b = tls.buf
            except AttributeError:
                b = tracer._buffer()
            stack = b.stack
            parent = stack[-1] if stack else tracer._root()
            sid = next_id()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                b.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                b.names.append(nid)
                b.ops.append(tracer.op)
                b.ids.append(sid)
                b.parents.append(parent)
                b.starts.append(t0)
                b.ends.append(t1)
            if sizer is not None:
                b.sizes[nid] += sizer(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hotlanes" or name.startswith("hotlanes."))]
        for name, (mod_name, attr) in TARGETS.items():
            orig = getattr(importlib.import_module(f"hotlanes.{mod_name}"), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, self._nid[name], SIZERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, orig))

    def restore(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around set-up or one operation."""
        b, nid = self._main, self._nid[name]
        parent = b.stack[-1] if b.stack else -1
        sid = next(self._ids)
        b.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            b.stack.pop()
            for col, v in ((b.names, nid), (b.ops, self.op), (b.ids, sid),
                           (b.parents, parent), (b.starts, t0), (b.ends, t1)):
                col.append(v)

    def write(self, path: str) -> None:
        """Dump all spans: a JSON header line, then per thread each column's raw bytes."""
        columns = ("names", "ops", "ids", "parents", "starts", "ends")
        header = {
            "names": self.names,
            "columns": [[c, getattr(self._main, c).typecode] for c in columns],
            "spans_per_thread": [len(b.ids) for b in self._buffers],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for b in self._buffers:
                for c in columns:
                    getattr(b, c).tofile(fh)


class SpanSummary:
    """Per-name call counts, inclusive and self time, errors and sizes.

    Self time is a span's duration minus the part of it its children cover.
    Children on the span's own thread run one after another, so their
    durations add; children on other threads (the two ``run`` calls of a
    compare) may overlap each other, so their union is taken.  The main
    thread opens no span while it waits for its workers, so the two sets do
    not overlap.
    """

    def __init__(self, tracer: Tracer):
        buffers = tracer._buffers
        n_names = len(tracer.names)
        self.names = tracer.names
        self.calls = [0] * n_names  # every call
        self.op_calls = [0] * n_names  # calls inside operations (op id >= 1)
        self.total_s = [0.0] * n_names
        self.self_s = [0.0] * n_names
        self.errors = [sum(b.errors[i] for b in buffers) for i in range(n_names)]
        self.sizes = [sum(b.sizes[i] for b in buffers) for i in range(n_names)]
        self.spans = n = sum(len(b.ids) for b in buffers)

        # Span ids come from one counter and every span is closed, so they
        # are dense in [0, n): locate each by (buffer, index) in two arrays.
        buf_of, idx_of = array("H", bytes(2 * n)), array("l", bytes(8 * n))
        for t, b in enumerate(buffers):
            for k, sid in enumerate(b.ids):
                buf_of[sid] = t
                idx_of[sid] = k
        covered = [array("d", bytes(8 * len(b.ids))) for b in buffers]
        cross: dict[int, list[tuple[float, float]]] = {}  # parent id -> child intervals
        for t, b in enumerate(buffers):
            cov = covered[t]
            for parent, start, end in zip(b.parents, b.starts, b.ends):
                if parent < 0:
                    continue
                if buf_of[parent] == t:
                    cov[idx_of[parent]] += end - start
                else:
                    cross.setdefault(parent, []).append((start, end))
        for parent, intervals in cross.items():
            union, reach = 0.0, float("-inf")
            for start, end in sorted(intervals):
                if end > reach:
                    union += end - max(start, reach)
                    reach = end
            covered[buf_of[parent]][idx_of[parent]] += union

        run_id, cmp_id = self.names.index("scenario.run"), self.names.index("scenario.compare_hov_hot")
        self.runs_in_compare_s = 0.0  # summed duration of the run spans under a compare
        for t, b in enumerate(buffers):
            cov = covered[t]
            for k, (nid, op, parent, start, end) in enumerate(
                zip(b.names, b.ops, b.parents, b.starts, b.ends)
            ):
                dur = end - start
                self.calls[nid] += 1
                if op > 0:
                    self.op_calls[nid] += 1
                self.total_s[nid] += dur
                self.self_s[nid] += dur - cov[k]
                if nid == run_id and parent >= 0 and buffers[buf_of[parent]].names[idx_of[parent]] == cmp_id:
                    self.runs_in_compare_s += dur

    def _sum(self, column: list, names: tuple[str, ...]):
        return sum(column[self.names.index(name)] for name in names)

    def calls_of(self, *names: str) -> int:
        return self._sum(self.calls, names)

    def op_calls_of(self, *names: str) -> int:
        return self._sum(self.op_calls, names)

    def self_of(self, *names: str) -> float:
        return self._sum(self.self_s, names)

    def total_of(self, *names: str) -> float:
        return self._sum(self.total_s, names)

    def errors_of(self, *names: str) -> int:
        return self._sum(self.errors, names)

    def size_of(self, *names: str) -> int:
        return self._sum(self.sizes, names)
