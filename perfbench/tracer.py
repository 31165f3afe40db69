"""Spans around bondlab's layer boundaries, recorded from outside the package.

``Tracer.wrap`` replaces a function attribute (a module global or a class
method) with a wrapper that records one span per call: its name, start, end,
the span that was open when it began, and the work item it served.  A span's
self time is its duration minus the time covered by its child spans.
Spans stay in compact arrays until :meth:`Tracer.write` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from array import array
from time import perf_counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Per name: [calls, inclusive seconds, self seconds, calls with no
        # enclosing span of the same layer, their inclusive seconds].
        self.totals: dict[str, list[float]] = {}
        self.item = -1
        # Open spans: [index, layer, child seconds, outermost in its layer].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0, 0, 0.0]
        return self._ids[name]

    def _open(self, nid: int, layer: str) -> list:
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        frame = [index, layer, 0.0, not stack or stack[-1][1] != layer]
        stack.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter()
        index = frame[0]
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._stack.pop()
        row = self.totals[name]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[2]
        if frame[3]:
            row[3] += 1
            row[4] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Callable[[Any], None] | None = None) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        The layer is the part of ``name`` before the first dot; nested calls
        within one layer count once in that layer's outermost figures.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = self._open(nid, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(frame, name)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a generator."""
        frame = self._open(self._name_id(name), name.split(".", 1)[0])
        try:
            yield
        finally:
            self._close(frame, name)

    def unwrap(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and totals; keep the wrappers installed."""
        for array_ in (self.span_name, self.span_parent, self.span_item,
                       self.span_start, self.span_end):
            del array_[:]
        for row in self.totals.values():
            row[:] = [0, 0.0, 0.0, 0, 0.0]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0))[1]

    def layer_outer(self, layer: str) -> tuple[int, float]:
        """Calls into ``layer`` from outside it, and their inclusive seconds."""
        calls = 0
        seconds = 0.0
        for name, row in self.totals.items():
            if name.split(".", 1)[0] == layer:
                calls += int(row[3])
                seconds += row[4]
        return calls, seconds

    def layer_self(self, layer: str) -> float:
        return sum(row[2] for name, row in self.totals.items()
                   if name.split(".", 1)[0] == layer)

    def all_self(self) -> float:
        return sum(row[2] for row in self.totals.values())

    def write(self, path: str, meta: dict) -> None:
        """Write every span as columnar JSON, gzip-compressed."""
        origin = self.span_start[0] if self.span_start else 0.0
        payload = {
            "meta": meta,
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "item": self.span_item.tolist(),
            "start_us": [round((t - origin) * 1e6, 1) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6, 1) for t in self.span_end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
