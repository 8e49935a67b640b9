"""Span tracer that times chainsep's layers from outside the package.

The package imports with ``from .linalg import herm_exp`` and similar, so one
function object is bound under its own name in every module that uses it.
`Tracer` replaces each public function of each layer module under every name
that refers to it, wraps ``LocalOperator.__matmul__``/``is_hermitian`` on the
class, and wraps ``numpy.linalg.eigh``/``eigvalsh``/``svd`` for the solver
counters.  Leaving the ``with`` block restores every replaced attribute.
Nothing under ``src/`` changes.

Spans are kept in memory as ``(id, parent, name, thread, start, end)`` and
written out by the caller when the run ends.  A span's parent is the span
open on the same thread when it started, except for `cli.pmap.item` spans,
whose parent is the `cli.pmap` span that queued them.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "model", "gibbs", "expansionals", "separability", "cli")
SOLVERS = ("eigh", "eigvalsh", "svd")
SOLVE_DIMS = (128, 256, 512, 1024, 2048)
# private functions that carry a per-layer metric, and the span name they get
PRIVATE = {
    ("cli", "_pmap"): "cli.pmap",
    ("cli", "_write_csv"): "cli.write_csv",
    ("separability", "_attempt_certificate"): "separability.k0_attempt",
}


def _region_key(ia, region, *_, **__):
    return id(ia), tuple(sorted(set(int(s) for s in region)))


def _expansional_key(ia, x, y, s, *_, **__):
    return id(ia), tuple(x), tuple(y), complex(s)


# Functions whose `.distinct` metric counts distinct inputs.  Interactions are
# keyed by identity; the tracer pins every keyed object so ids are not reused.
DISTINCT_KEYS = {
    "model.hamiltonian": _region_key,
    "gibbs.gibbs": _region_key,
    "expansionals.expansional": _expansional_key,
}


def _array_digest(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, hashlib.blake2b(memoryview(a).cast("B")).hexdigest()


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, package):
        # the package rebinds `chainsep.gibbs` to the function, so layer
        # modules are looked up by their full names
        self._layers = {n: importlib.import_module(f"{package.__name__}.{n}") for n in LAYERS}
        self._modules = [package, *self._layers.values()]
        self._undo: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.pinned: dict[int, object] = {}
        self.counts = Counter()

    # -- installation -------------------------------------------------------
    def __enter__(self):
        for layer, module in self._layers.items():
            for name, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                span = PRIVATE.get((layer, name))
                if span is None:
                    if name.startswith("_"):
                        continue
                    span = f"{layer}.{name}"
                wrapper = self._pmap_wrapper(fn) if span == "cli.pmap" else self.wrap(fn, span)
                self._rebind(fn, wrapper)
        op = self._layers["linalg"].LocalOperator
        for attr, span in (("__matmul__", "linalg.matmul"), ("is_hermitian", "linalg.is_hermitian")):
            self._replace(op, attr, self.wrap(getattr(op, attr), span))
        for name in SOLVERS:
            self._replace(np.linalg, name, self._solver_wrapper(getattr(np.linalg, name), name))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()
        return False

    def _replace(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace `fn` under every name bound to it in the package's modules."""
        for module in self._modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, name, wrapper)

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, start, end, sid):
        with self._lock:
            self.spans.append((sid, parent, name, threading.get_ident(), start, end))

    def run_span(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(name, parent, start, end, sid)

    def wrap(self, fn, name):
        key_fn = DISTINCT_KEYS.get(name)

        def traced(*args, **kwargs):
            if key_fn is not None:
                try:
                    key = key_fn(*args, **kwargs)
                except (TypeError, ValueError, IndexError):
                    key = object()  # a call shape the key does not know counts as distinct
                with self._lock:
                    self.distinct[name].add(key)
                    if args:
                        self.pinned[id(args[0])] = args[0]
            return self.run_span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _pmap_wrapper(self, pmap):
        def pool(fn, items, jobs):
            sid = self._stack()[-1]  # the cli.pmap span that run_span opened

            def item(it):
                return self.run_span("cli.pmap.item", fn, (it,), {}, parent=sid)

            start = time.perf_counter()
            try:
                return pmap(item, items, jobs)
            finally:
                with self._lock:
                    self.counts["cli.pmap.jobs_x_wall"] += jobs * (time.perf_counter() - start)

        def traced_pmap(fn, items, jobs):
            return self.run_span("cli.pmap", pool, (fn, items, jobs), {})

        traced_pmap.__wrapped__ = pmap
        return traced_pmap

    def _solver_wrapper(self, fn, kind):
        def traced(a, *args, **kwargs):
            arr = np.asarray(a)
            digest = _array_digest(arr)
            n = arr.shape[-1]
            with self._lock:
                self.distinct[f"solve.{kind}"].add(digest)
                self.counts[f"solve.{kind}.calls.d{n}"] += 1
                self.counts["solve.dim3_sum"] += n**3
                self.counts["solve.complex_calls"] += int(np.iscomplexobj(arr))
            return self.run_span(f"solve.{kind}", fn, (a,) + args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- reduction ------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is the span's duration minus the part of its interval that
        its child spans cover; children on other threads may overlap, so the
        covered part is the union of the child intervals.
        """
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, _, start, end in self.spans:
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += (end - start) - covered
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self) -> dict[str, float]:
        """Every per-layer number the spans and counters give, by name."""
        times = self.self_times()
        m: dict[str, float] = {}
        for name, (calls, total, self_s) in times.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.s"] = total
            m[f"{name}.self_s"] = self_s
        for name, keys in self.distinct.items():
            m[f"{name}.distinct"] = len(keys)
        m.update(self.counts)
        for d in SOLVE_DIMS:
            m.setdefault(f"solve.eigh.calls.d{d}", 0)
        calls = sum(times.get(f"solve.{k}", (0,))[0] for k in SOLVERS)
        distinct = sum(len(self.distinct.get(f"solve.{k}", ())) for k in SOLVERS)
        m["solve.distinct_frac"] = distinct / calls if calls else 0.0
        m["solve.complex_frac"] = self.counts["solve.complex_calls"] / calls if calls else 0.0
        m["separability.k0_attempts"] = times.get("separability.k0_attempt", (0,))[0]

        starts = {sid: start for sid, _, name, _, start, _ in self.spans if name == "cli.pmap"}
        m["cli.pmap.items"] = m.pop("cli.pmap.item.calls", 0)
        m["cli.pmap.item_busy_s"] = m.pop("cli.pmap.item.s", 0.0)
        m["cli.pmap.queue_wait_s"] = sum(
            start - starts[parent]
            for _, parent, name, _, start, _ in self.spans
            if name == "cli.pmap.item"
        )
        jobs_x_wall = self.counts["cli.pmap.jobs_x_wall"]
        m["cli.pmap.parallel_eff"] = m["cli.pmap.item_busy_s"] / jobs_x_wall if jobs_x_wall else 0.0
        return m

    def write_spans(self, path) -> None:
        names = ("id", "parent", "name", "thread", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
