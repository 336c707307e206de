"""Spans around front-door calls, recorded from the benchmark's side.

A span is ``(name, start_ns, end_ns, parent, round_id)``; ``parent`` is
the index of the enclosing span in the same list (-1 at the top).  Spans
stay in memory for the whole run and are written out once, at exit.  A
span's *self time* is its duration minus the part its children cover, so
summing self times over every span of a round gives that round's wall
time exactly once.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

Span = Tuple[str, int, int, int, int]


class _OpenSpan:
    """Context manager for one span (a class, not a generator: the
    generator-based contextmanager costs ~1.5 us per entry)."""

    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec._stack[-1] if rec._stack else -1
        rec.spans.append((self.name, time.perf_counter_ns(), 0, parent,
                          rec.round_id))
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        rec = self.rec
        name, start, _end, parent, round_id = rec.spans[self.index]
        rec.spans[self.index] = (name, start, end, parent, round_id)
        rec._stack.pop()


class SpanRecorder:
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.round_id = 0

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)

    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """``{round_id: {span name: summed self time in seconds}}``."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent, _round in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[int, Dict[str, float]] = {}
        for i, (name, start, end, _parent, round_id) in enumerate(self.spans):
            per_round = out.setdefault(round_id, {})
            per_round[name] = per_round.get(name, 0.0) + \
                (end - start - child_ns[i]) / 1e9
        return out

    def durations_ns(self, name: str) -> List[int]:
        return [end - start for n, start, end, _p, _r in self.spans
                if n == name]

    def write(self, path: str, header: Dict[str, object]) -> None:
        """One JSON document: ``header`` plus the span table (columns
        named once, rows as arrays, times in ns since the first span)."""
        origin = self.spans[0][1] if self.spans else 0
        doc = dict(header)
        doc["columns"] = ["name", "start_ns", "end_ns", "parent", "round"]
        doc["spans"] = [[name, start - origin, end - origin, parent, rnd]
                        for name, start, end, parent, rnd in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Stands in for :class:`SpanRecorder` on untraced rounds."""

    enabled = False
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


NULL = NullRecorder()
