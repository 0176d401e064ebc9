"""In-memory span and counter recorder that instruments a package from outside.

``Tracer.wrap`` replaces a module-level function by a recording wrapper,
both on its home module and on every module of the package that imported
it by name at load time (``from .linalg import fp_rank``), so that calls
through those aliases are seen too.  ``Tracer.wrap_method`` does the same
for a method on its class.  ``unwrap`` puts every original back.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or -1.  Spans and counts stay in memory; ``dump`` writes
them once, when the run ends.
"""

import contextlib
import functools
import json
import sys
import time


class Tracer:
    def __init__(self, package, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans = []
        self.cells = {}
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _recorder(self, fn, name, cells):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cells is not None:
                self.cells[name] = self.cells.get(name, 0) + cells(*args,
                                                                  **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- instrumentation -------------------------------------------------

    def _package_modules(self):
        prefix = self.package + "."
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(prefix))]

    def wrap(self, module, attr, cells=None):
        """Wrap ``module.attr`` and every alias of it in the package; the
        spans are named ``<last module name part>.<attr>``.  ``cells``
        maps the call's arguments to the work handed in."""
        original = getattr(module, attr)
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
        wrapper = self._recorder(original, name, cells)
        for mod in self._package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))
        return wrapper

    def wrap_method(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._recorder(original, name, None))
        self._patches.append((cls, attr, original))

    def unwrap(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per span name: inclusive seconds ``s``, self seconds ``self_s``,
        ``calls`` and ``cells``.

        Inclusive time counts a span only when no ancestor has the same
        name, so recursion is not counted twice.  Self time is a span's
        duration minus the part of it that its direct children cover."""
        return summarize(self.spans, self.cells)

    def dump(self, path, meta=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta or {}, "spans": self.spans,
                       "cells": self.cells}, fh)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, cells=None):
    children = {}
    for start, end, parent in ((sp[1], sp[2], sp[3]) for sp in spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                    "cells": 0})
        dur = end - start
        rec["self_s"] += dur - _covered(children.get(idx, ()), start, end)
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            rec["s"] += dur
        rec["calls"] += 1
    for name, n in (cells or {}).items():
        out[name]["cells"] = n
    return out
