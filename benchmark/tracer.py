"""In-memory span tracer that wraps balora's public functions from outside.

A span is ``[name, start_ns, end_ns, parent, run]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``run`` the id of the
cycle that produced it. Wrapping works by rebinding module attributes and
class attributes, so a call made through the module (``T.matmul``) or as a
module global (``matmul`` inside ``tensor.linear``) both land in the
wrapper. Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np


class Tracer:
    """Collects spans and per-run counters for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.run][name] += value

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None,
             rename: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``on_return(tracer, args, kwargs, result)`` records counters at the
        boundary; ``rename(args, kwargs, result)`` picks the span name when
        it depends on the call (taped or not, swept size).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter_ns(), 0, parent, tracer.run]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if rename is not None:
                span[0] = rename(args, kwargs, result)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Patch:
    """Rebind attributes for the duration of a ``with`` block, then restore."""

    def __init__(self):
        self._saved: list[tuple] = []
        self._pending: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._pending.append((owner, attr, value))

    def __enter__(self):
        for owner, attr, value in self._pending:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def self_times(spans: list) -> list[int]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover, clipped to the span itself."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def aggregate(spans: list) -> dict:
    """Per run and span name: call count, inclusive ns and self ns."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    for span, self_ns in zip(spans, selfs):
        row = table[span[4]][span[0]]
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_ns
    return table


def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0
