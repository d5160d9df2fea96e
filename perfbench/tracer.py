"""In-memory span tracer that wraps the repo's public entry points.

The traced run patches methods of ``repro`` classes in memory, from this
file only; nothing under ``src/`` changes. Each call to a wrapped function
records one span: its name, start, end and the span that was open when it
was called (its parent). Spans live in flat arrays until the run ends, when
:meth:`Tracer.save` writes them out; ``layers.py`` reduces them to the
per-layer metrics.

A layer's *self time* is the sum of its spans' durations minus the time
covered by their direct child spans.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.last: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span. ``name`` may be a function of the
        call's arguments; ``after(args, result)`` updates counters."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        fixed = None if callable(name) else self._id(name)
        name_of = self._id

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(fixed if fixed is not None else name_of(name(*args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` (a class or an instance) with a traced
        version for the rest of the process."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        sid = self._stack[-1]
        return None if sid < 0 else self.names[self.span_name[sid]]

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def high(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- reduction -----------------------------------------------------------
    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        return name, parent, dur

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``."""
        if name not in self._ids:
            return np.zeros(0)
        nm, _, dur = self._arrays()
        return dur[nm == self._ids[name]]

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        nm, parent, dur = self._arrays()
        if not len(nm):
            return {}
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(nm)
        )
        own = np.bincount(nm, weights=dur - covered, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        nm, _, _ = self._arrays()
        c = np.bincount(nm, minlength=len(self.names))
        return {n: int(c[i]) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        nm, parent, _ = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=nm,
            parent=parent,
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
