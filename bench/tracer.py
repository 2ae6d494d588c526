"""In-memory span tracer that wraps dmtrack functions from outside the package.

A target is named "module.function" relative to the package. Installing it
replaces the function in every loaded package module that holds a reference
to it (modules import each other's functions by name, so patching only the
defining module would miss most calls). A target that no longer exists is
recorded as absent instead of failing, so a later rename shows up as missing
metrics rather than a crashed benchmark.

Spans are (name, start, end, parent, attrs) tuples kept in a list; parent is
the index of the enclosing span or -1. Self time is derived afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager


PACKAGE = "dmtrack"


def resolve(target):
    """The object named "module.attr" inside the package, or None if it is gone."""
    modname, attr = target.rsplit(".", 1)
    try:
        return getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
    except (ImportError, AttributeError):
        return None


def replace_everywhere(original, replacement):
    """Rebind every loaded package-module global that is `original`; returns the undo list."""
    patches = []
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                patches.append((mod, key, original))
    return patches


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, None)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx, attrs):
        end = time.perf_counter()
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, attrs)
        self._stack.pop()

    def _wrap(self, name, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx, attrs_of(result) if attrs_of and result is not None else None)

        return traced

    def install(self, targets):
        """Wrap each "module.function" target; `targets` maps name -> attrs_of or None.

        attrs_of(result) returns a dict stored on the span, e.g. rounds simulated.
        """
        self.absent = []
        for target, attrs_of in targets.items():
            original = resolve(target)
            if original is None:
                self.absent.append(target)
                continue
            wrapped = self._wrap(target, original, attrs_of)
            self._patches += replace_everywhere(original, wrapped)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


def aggregate(spans):
    """Per-name calls, inclusive seconds and self seconds over closed spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - child_time[i]
    return stats
