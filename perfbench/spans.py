"""Host-time spans recorded around public calls into the repro layers.

The traced run installs wrappers from the benchmark's own files: each call
through a wrapped function opens a span (name, start, end, parent) on the
host clock.  Spans stay in memory until the run ends; the benchmark then
reduces them to per-name totals and self times.

A span's *self time* is its duration minus the part of its interval that
its direct children cover.  Children are merged as intervals first, so
overlapping children (a detached span, a child that outlives its parent)
are never subtracted twice and never beyond the parent's own bounds.
"""

import functools
import importlib
import sys
from time import perf_counter


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        #: [name, start, end, parent index or -1]
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def instrument(self, target, name):
        """Wrap ``"module:attr.path"`` everywhere it is bound.

        The defining module or class attribute is replaced, and so is
        every global of an already imported ``repro`` module that holds
        the same function (``from x import f`` copies made before the
        wrapper existed).  :meth:`restore` undoes all of it.
        """
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        func = getattr(original, "__func__", original)
        wrapped = self.wrap(name, func)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        self.patch(owner, attr, wrapped)
        if not isinstance(owner, type):
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, key, wrapped)
        return wrapped

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self seconds: duration minus the union of its children."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        kids = sorted((max(start, spans[k][1]), min(end, spans[k][2]))
                      for k in children.get(index, ()))
        for lo, hi in kids:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def totals(spans):
    """``{name: {"count", "total_s", "self_s"}}``; an unfinished span
    (its call never returned) counts with zero duration."""
    closed = [span if span[2] is not None else [span[0], span[1], span[1],
                                                span[3]]
              for span in spans]
    out = {}
    for span, own in zip(closed, self_times(closed)):
        entry = out.setdefault(span[0], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return out
