"""Span tracing of the library's layers from outside the library.

``Tracer.install`` wraps every public function of the traced modules and
rebinds each wrapper in every ``dirac_surface`` module namespace that
binds the original, so calls made through any import path are recorded.
A span is ``(id, parent, name, start_ns, end_ns, extra)``; spans stay in
memory until ``write``.  Spans opened by a worker thread with an empty
stack are parented to the op's root span (the ``cli.main`` call), so the
root's self time excludes the pool's work.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


TRACED_MODULES = ("expr", "geometry", "clifford", "dirac", "weierstrass", "cli")


def _operator_bytes(args, result):
    shape = result.matrix.shape
    return shape[0] * shape[1] * result.matrix.dtype.itemsize


# per-function extra value stored in the span: a flag or a size
EXTRA = {
    # the normal pair came back re-signed or pivoted
    "geometry.align_frame": lambda args, result: int(not np.array_equal(result.n, args[0].n)),
    "clifford.spin_lift": lambda args, result: int(result.flagged),
    "dirac.assemble_grid_operator": _operator_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.ops = []          # (op id, first span index, end span index)
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._bindings = []    # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter_ns
        extra = EXTRA.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif tracer.root is None:
                parent = None
                tracer.root = sid
            else:
                parent = tracer.root
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                flag = extra(args, result) if extra and result is not None else 0
                spans.append((sid, parent, name, t0, t1, flag))

        return wrapper

    def install(self):
        package = sys.modules["dirac_surface"]
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"dirac_surface.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [package] + [
            m for n, m in sys.modules.items() if n.startswith("dirac_surface.")
        ]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._bindings.append((ns, attr, hit[0]))

    def uninstall(self):
        for ns, attr, original in self._bindings:
            setattr(ns, attr, original)
        self._bindings.clear()

    def run_op(self, op_id, call):
        """Run ``call`` as one op; its spans are tagged with ``op_id``."""
        start = len(self.spans)
        self.root = None
        try:
            return call()
        finally:
            self.root = None
            self.ops.append((op_id, start, len(self.spans)))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, lo, hi in self.ops:
                for sid, parent, name, t0, t1, extra in self.spans[lo:hi]:
                    fh.write(json.dumps([op_id, sid, parent, name, t0, t1, extra]) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_totals(spans) -> dict:
    """Per span name: calls, self time in seconds, summed and largest extra.

    Self time is the span's duration minus the part of it covered by its
    child spans (children in worker threads may overlap each other).
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "extra": 0, "extra_max": 0})
    for sid, _, name, t0, t1, extra in spans:
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (t1 - t0 - _covered(children.get(sid, ()), t0, t1)) * 1e-9
        rec["extra"] += extra
        rec["extra_max"] = max(rec["extra_max"], extra)
    return dict(out)
