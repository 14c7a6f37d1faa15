"""Span tracing installed from outside the program.

The tracer replaces each public function of the netcv modules with a
timing wrapper at every name a caller looks it up under (for example
``netcv.ncv.top_k_right_singular``, which ``ncv_select`` calls, is the
same function object as ``netcv.spectral.top_k_right_singular``), and
puts the originals back afterwards.  No file of the program changes.

Spans are kept in memory.  Each thread has its own parent stack; a
span opened on a worker thread with an empty stack is parented to the
innermost open span of the thread that installed the tracer, so spans
run on the harness thread pool nest under ``harness.run_sim1``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("graphs", "models", "spectral", "estimators", "ncv", "harness", "cli")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    """Context manager that wraps the layers' public functions in spans.

    ``on_return`` maps a span name to ``hook(args, kwargs, result)``,
    called after the span has closed, to keep arguments or results for
    checks made once the traced phase is over.
    """

    def __init__(self, on_return=None):
        self.spans: list[Span] = []
        self._on_return = dict(on_return or {})
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = threading.get_ident() == self._root_thread
            stack = self._root_stack if root else []
            self._local.stack = stack
        return stack

    def _wrap(self, name, fn):
        tracer = self
        hook = self._on_return.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack()
            origin = stack or tracer._root_stack
            parent = origin[-1] if origin else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         threading.get_ident()))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    def __enter__(self):
        self._root_thread = threading.get_ident()
        modules = [sys.modules[f"netcv.{layer}"] for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [sys.modules["netcv"]] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()
        return False

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s._asdict()) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanSummary(NamedTuple):
    total_s: dict    # name -> summed span durations
    self_s: dict     # name -> summed (duration - time covered by child spans)
    calls: dict      # name -> span count
    roots: list      # spans with no parent
    nesting_errors: list  # descriptions of spans that break the nesting rules


def summarize(spans, tol=1e-6):
    """Per-name totals, self times and counts, and a nesting check.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Every child must lie inside its parent,
    and children run on one thread must not overlap.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    total_s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    errors = []
    for s in spans:
        kids = children.get(s.id, [])
        covered = _union_length([(max(c.start, s.start), min(c.end, s.end))
                                 for c in kids])
        total_s[s.name] += s.dur
        self_s[s.name] += s.dur - covered
        calls[s.name] += 1
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start - tol or s.end > p.end + tol:
                errors.append(f"{s.name} outside parent {p.name}")
        per_thread = defaultdict(list)
        for c in kids:
            per_thread[c.thread].append(c)
        for same in per_thread.values():
            same.sort(key=lambda c: c.start)
            for a, b in zip(same, same[1:]):
                if b.start < a.end - tol:
                    errors.append(f"{a.name} overlaps {b.name} on one thread")
    roots = [s for s in spans if s.parent is None]
    return SpanSummary(dict(total_s), dict(self_s), dict(calls), roots, errors)
