"""Span recorder for the traced run.

Wraps the public functions and methods of each ``projsd`` layer at every
name a caller binds (``projsd.solver.duality_map``, ``projsd.sets.norm``,
``projsd.cli.run_multi_level``, ``LinearModel.eval`` ...), records one span
per call (name, start, end, parent) and keeps per-name totals of calls,
duration and self time.  Self time is a span's duration minus the
durations of its direct children; the run is single-threaded, so spans
nest strictly and nothing waits.  Every binding is restored on exit.
"""

from __future__ import annotations

import gzip
import importlib
import types
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("geometry", "sets", "models", "solver", "multilevel", "cli")
ROOT = "bench.solve"
# Spans kept in memory for the dump; the totals cover every span.
MAX_KEPT_SPANS = 300_000


class SpanRecorder:
    """Spans in memory plus running totals per span name.

    The first ``MAX_KEPT_SPANS`` spans are kept for the dump; the totals
    cover every span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        # (child name id, parent name id) -> [calls, total ns]
        self.by_parent: dict[tuple[int, int], list[int]] = {}
        self.kept_name = array("i")
        self.kept_parent = array("i")
        self.kept_start = array("q")
        self.kept_end = array("q")
        self.n_spans = 0
        self._stack: list[list[int]] = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, nid):
        # [span index, name id, start, time covered by children]
        self._stack.append([self.n_spans, nid, perf_counter_ns(), 0])
        self.n_spans += 1

    def close(self):
        end = perf_counter_ns()
        idx, nid, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_idx, parent_nid = parent[0], parent[1]
        else:
            parent_idx, parent_nid = -1, -1
        slot = self.by_parent.get((nid, parent_nid))
        if slot is None:
            self.by_parent[(nid, parent_nid)] = [1, dur]
        else:
            slot[0] += 1
            slot[1] += dur
        if idx < MAX_KEPT_SPANS:
            self.kept_name.append(nid)
            self.kept_parent.append(parent_idx)
            self.kept_start.append(start)
            self.kept_end.append(end)
        return dur

    # -- queries -----------------------------------------------------------

    def _ids_matching(self, pred):
        return [i for i, n in enumerate(self.names) if pred(n)]

    def total(self, field, pred):
        values = getattr(self, field)
        return sum(values[i] for i in self._ids_matching(pred))

    def total_under(self, child_pred, parent_pred, field=1):
        """Calls (field 0) or ns (field 1) of spans matching `child_pred`
        whose direct parent matches `parent_pred`."""
        out = 0
        for (c, p), slot in self.by_parent.items():
            if p >= 0 and child_pred(self.names[c]) \
                    and parent_pred(self.names[p]):
                out += slot[field]
        return out

    def dump(self, path):
        """Write the kept spans as gzipped CSV, one row per span, in the
        order they closed."""
        with gzip.open(path, "wt") as fh:
            fh.write(f"# spans kept {len(self.kept_name)} of {self.n_spans}\n")
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(len(self.kept_name)):
                fh.write(f"{i},{self.names[self.kept_name[i]]},"
                         f"{self.kept_start[i]},{self.kept_end[i]},"
                         f"{self.kept_parent[i]}\n")


def layer_of(name):
    return name.split(".", 1)[0]


def _public_callables():
    """(owner, attribute, function, span name) for every public function
    and public method defined in a layer module."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"projsd.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                found.append((mod, attr, obj, f"{layer}.{attr}"))
            elif isinstance(obj, type):
                for key, val in vars(obj).items():
                    if isinstance(val, types.FunctionType) \
                            and not key.startswith("_"):
                        found.append((obj, key, val,
                                      f"{layer}.{obj.__name__}.{key}"))
    return found


class Instrumentation:
    """Installs span wrappers at every binding of the layer functions.

    Module-level functions are replaced in every ``projsd`` namespace that
    binds them; methods are replaced on the class that defines them.
    Hooks add two measurements that need the call's arguments: whether a
    Bregman projection moved its point, and the bytes of the model matrix
    each evaluation streams.
    """

    def __init__(self, recorder):
        self.rec = recorder
        self.projections: list[tuple[str, bool, int]] = []
        self.model_bytes = 0
        self._saved: list[tuple[object, str, object]] = []
        namespaces = [importlib.import_module("projsd")] + [
            importlib.import_module(f"projsd.{layer}") for layer in LAYERS]
        self._targets = []
        functions = {}
        for owner, attr, fn, name in _public_callables():
            if isinstance(owner, type):
                self._targets.append((owner, attr, fn, name))
            else:
                functions[id(fn)] = (fn, name)
        for ns in namespaces:
            for attr, val in vars(ns).items():
                if id(val) in functions:
                    fn, name = functions[id(val)]
                    self._targets.append((ns, attr, fn, name))
        self._wrappers = {}

    def _wrap(self, fn, name):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        rec = self.rec
        nid = rec.name_id(name)
        short = name.rsplit(".", 1)[-1]
        if name == "sets.bregman_project":
            projections = self.projections

            def wrapper(space, cset, x):
                rec.open(nid)
                try:
                    out = fn(space, cset, x)
                finally:
                    dur = rec.close()
                projections.append((type(cset).__name__,
                                    not np.array_equal(out, x), dur))
                return out
        elif layer_of(name) == "models" and short in ("eval",
                                                      "apply_adjoint"):
            def wrapper(model, *args, **kwargs):
                rec.open(nid)
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    rec.close()
                    self.model_bytes += model.matrix.nbytes
        else:
            def wrapper(*args, **kwargs):
                rec.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close()
        self._wrappers[key] = wrapper
        return wrapper

    def __enter__(self):
        for owner, attr, fn, name in self._targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def restored(self):
        """True when every binding holds its original function again."""
        return all(getattr(owner, attr) is fn
                   for owner, attr, fn, _ in self._targets)
