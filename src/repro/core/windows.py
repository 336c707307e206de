"""Window semantics for TelegraphCQ queries (Section 4.1).

TelegraphCQ declares the *sequence of windows* a query runs over with a
for-loop construct::

    for(t = initial; continue_condition(t); change(t)) {
        WindowIs(StreamA, left_end(t), right_end(t));
        ...
    }

For every value of the loop variable ``t`` the query executes over the
set of tuples inside each stream's window, and the client receives the
output as a *sequence of sets*, one per loop iteration.  This module
provides:

* :class:`WindowIs` — one stream's ``(left_end(t), right_end(t))``;
* :class:`ForLoopSpec` — the loop itself, iterable over
  :class:`WindowInstance` objects; constructors for the paper's query
  classes (snapshot, landmark, sliding/hopping, backward-moving, and
  band-join windows);
* :class:`HistoricalStore` — an ordered per-stream row log supporting
  efficient timestamp range scans (the "scanner driven by window
  descriptors" of Section 4.2.3).

The one window evaluator is the optimizer's
:class:`~repro.query.optimizer.WindowedPlan`, which the server drives
over these stores.

Timestamps here are *logical* (tuple sequence numbers) by default, which
the paper notes makes window memory requirements knowable a priori;
physical-time streams work identically as long as tuples arrive in
timestamp order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple as TypingTuple, Union)

from repro.core.tuples import Rows, Schema, Tuple
from repro.errors import QueryError
from repro.monitor import telemetry


class _HistoryTotals:
    """Process-wide counters over every HistoricalStore (stores are
    per-stream and per-server; the totals outlive them all)."""

    __slots__ = ("appends", "scans", "tuples_scanned", "truncated")

    def __init__(self) -> None:
        self.appends = 0
        self.scans = 0
        self.tuples_scanned = 0
        self.truncated = 0


HISTORY_TOTALS = _HistoryTotals()


def _collect_history_telemetry(reg: "telemetry.MetricRegistry") -> None:
    reg.counter("tcq_storage_history_appends_total",
                "Tuples appended to historical stores").set_total(
        HISTORY_TOTALS.appends)
    reg.counter("tcq_storage_history_scans_total",
                "Window range scans over historical stores").set_total(
        HISTORY_TOTALS.scans)
    reg.counter("tcq_storage_history_tuples_scanned_total",
                "Tuples returned by historical range scans").set_total(
        HISTORY_TOTALS.tuples_scanned)
    reg.counter("tcq_storage_history_truncated_total",
                "Tuples discarded by store truncation").set_total(
        HISTORY_TOTALS.truncated)


telemetry.register_global_collector(_collect_history_telemetry)


class WindowIs:
    """``WindowIs(stream, left_end(t), right_end(t))`` — both ends are
    functions of the loop variable and both are inclusive, matching the
    paper's examples."""

    __slots__ = ("stream", "left_end", "right_end")

    def __init__(self, stream: str,
                 left_end: Callable[[int], int],
                 right_end: Callable[[int], int]):
        self.stream = stream
        self.left_end = left_end
        self.right_end = right_end

    def bounds(self, t: int) -> TypingTuple[int, int]:
        return self.left_end(t), self.right_end(t)

    def __repr__(self) -> str:
        return f"WindowIs({self.stream})"


class WindowInstance:
    """One iteration of the for-loop: the loop value and each stream's
    inclusive window bounds."""

    __slots__ = ("t", "bounds")

    def __init__(self, t: int, bounds: Dict[str, TypingTuple[int, int]]):
        self.t = t
        self.bounds = bounds

    def bounds_for(self, stream: str) -> TypingTuple[int, int]:
        try:
            return self.bounds[stream]
        except KeyError:
            raise QueryError(
                f"no WindowIs declared for stream {stream!r}") from None

    def __repr__(self) -> str:
        return f"WindowInstance(t={self.t}, {self.bounds})"


class ForLoopSpec:
    """The paper's low-level window mechanism.

    ``initial`` seeds the loop variable, ``condition`` keeps it running,
    ``change`` advances it, and ``windows`` holds one :class:`WindowIs`
    per stream.  Iterating the spec yields :class:`WindowInstance`s.

    ``max_iterations`` is a safety net for specs whose condition never
    fails (continuous standing queries): iteration stops there rather
    than spinning forever, and streaming executors re-enter where they
    left off.
    """

    def __init__(self, initial: int, condition: Callable[[int], bool],
                 change: Callable[[int], int],
                 windows: Sequence[WindowIs],
                 max_iterations: int = 1_000_000):
        if not windows:
            raise QueryError("a for-loop needs at least one WindowIs")
        seen = set()
        for w in windows:
            if w.stream in seen:
                raise QueryError(
                    f"duplicate WindowIs for stream {w.stream!r}")
            seen.add(w.stream)
        self.initial = initial
        self.condition = condition
        self.change = change
        self.windows = list(windows)
        self.max_iterations = max_iterations

    def __iter__(self) -> Iterator[WindowInstance]:
        t = self.initial
        iterations = 0
        while self.condition(t) and iterations < self.max_iterations:
            yield WindowInstance(
                t, {w.stream: w.bounds(t) for w in self.windows})
            t = self.change(t)
            iterations += 1

    def streams(self) -> List[str]:
        return [w.stream for w in self.windows]

    # -- constructors for the paper's window classes -------------------------

    @classmethod
    def snapshot(cls, stream: str, left: int, right: int) -> "ForLoopSpec":
        """Execute exactly once over one fixed window (paper example 1:
        ``for(; t==0; t=-1) WindowIs(S, 1, 5)``)."""
        return cls(initial=0, condition=lambda t: t == 0,
                   change=lambda t: -1,
                   windows=[WindowIs(stream, lambda t: left,
                                     lambda t: right)])

    @classmethod
    def landmark(cls, stream: str, anchor: int, start: int, stop: int,
                 step: int = 1) -> "ForLoopSpec":
        """Fixed left end at ``anchor``, right end sweeping ``start`` to
        ``stop`` inclusive (paper example 2)."""
        return cls(initial=start, condition=lambda t: t <= stop,
                   change=lambda t: t + step,
                   windows=[WindowIs(stream, lambda t: anchor,
                                     lambda t: t)])

    @classmethod
    def sliding(cls, stream: str, width: int, start: int, stop: int,
                hop: int = 1) -> "ForLoopSpec":
        """Both ends move forward together; ``hop`` > 1 gives the paper's
        hopping window (example 3 is width 5, hop 5)."""
        if width < 1:
            raise QueryError("window width must be >= 1")
        return cls(initial=start, condition=lambda t: t < stop,
                   change=lambda t: t + hop,
                   windows=[WindowIs(stream, lambda t: t - width + 1,
                                     lambda t: t)])

    @classmethod
    def backward(cls, stream: str, width: int, start: int, stop: int,
                 hop: int = 1) -> "ForLoopSpec":
        """Windows moving in the reverse-timestamp direction — the
        "browsing system" of Section 4.1.1 where a user walks backwards
        through history from the present."""
        return cls(initial=start, condition=lambda t: t >= stop,
                   change=lambda t: t - hop,
                   windows=[WindowIs(stream, lambda t: t - width + 1,
                                     lambda t: t)])

    @classmethod
    def band(cls, streams: Sequence[str], width: int, start: int,
             stop: int, hop: int = 1) -> "ForLoopSpec":
        """The temporal band-join shape (paper example 4): the same
        sliding window applied to several streams in unison."""
        return cls(initial=start, condition=lambda t: t < stop,
                   change=lambda t: t + hop,
                   windows=[WindowIs(s, lambda t: t - width + 1,
                                     lambda t: t) for s in streams])


def check_order(where: str, stamps: Sequence[Optional[int]],
                last: Optional[int]) -> None:
    """Raise :class:`QueryError` unless every stamp is present and they
    are non-decreasing from ``last`` (None: no earlier stamp)."""
    if isinstance(stamps, range) and stamps.step > 0:
        stamps = stamps[:1]          # increasing: only the first can fail
    for ts in stamps:
        if ts is None:
            raise QueryError(f"{where}: windowed tuples need timestamps")
        if last is not None and ts < last:
            raise QueryError(
                f"{where}: out-of-order timestamp {ts} after {last}")
        last = ts


class HistoricalStore:
    """An append-only, timestamp-ordered log of one stream's rows.

    Backs windows over "the portion of the stream that has already
    arrived".  Appends must be non-decreasing in timestamp; range scans
    bisect on timestamps, so a scan is O(log n + answer).

    A row is kept as its value tuple and timestamp, which the garbage
    collector never walks; the :class:`Tuple` of a row that exists as
    one (it arrived built, was sampled for tracing or classified by a
    shedder) is kept beside them, so a scan hands back that object.
    """

    def __init__(self, stream: str):
        self.stream = stream
        #: the schema rows are built under by :meth:`scan` (the first
        #: batch's).
        self.schema: Optional[Schema] = None
        self._values: List[TypingTuple] = []
        self._timestamps: List[int] = []
        #: the rows that exist as tuples: their positions counted from
        #: the first row ever appended (ascending), and the tuples.
        self._built_at: List[int] = []
        self._built: List[Tuple] = []
        #: rows truncated so far: the position of ``_values[0]``.
        self._dropped = 0

    def append(self, t: Tuple) -> None:
        """Append one already-built tuple (kept as itself)."""
        check_order(f"stream {self.stream!r}", (t.timestamp,),
                    self.latest_timestamp())
        if self.schema is None:
            self.schema = t.schema
        self._built_at.append(self._dropped + len(self._values))
        self._built.append(t)
        self._values.append(t.values)
        self._timestamps.append(t.timestamp)
        HISTORY_TOTALS.appends += 1

    def extend(self, rows: Union[Rows, Iterable[Tuple]]) -> None:
        """Append a batch, all or nothing: every timestamp is checked
        before the first row is stored."""
        if not isinstance(rows, Rows):
            rows = Rows.of(rows)
        stamps = rows.stamps
        check_order(f"stream {self.stream!r}", stamps,
                    self.latest_timestamp())
        if self.schema is None:
            self.schema = rows.schema
        if rows.built:
            base = self._dropped + len(self._values)
            for i in sorted(rows.built):
                self._built_at.append(base + i)
                self._built.append(rows.built[i])
        self._values.extend(rows.values)
        self._timestamps.extend(stamps)
        HISTORY_TOTALS.appends += len(rows.values)

    def rows(self, left: int, right: int) -> Rows:
        """The rows with ``left <= timestamp <= right``, as values."""
        lo = bisect_left(self._timestamps, left)
        hi = bisect_right(self._timestamps, right)
        HISTORY_TOTALS.scans += 1
        HISTORY_TOTALS.tuples_scanned += hi - lo
        built = {}
        if self._built_at:
            first = self._dropped + lo
            a = bisect_left(self._built_at, first)
            b = bisect_left(self._built_at, self._dropped + hi)
            built = {at - first: t for at, t in
                     zip(self._built_at[a:b], self._built[a:b])}
        return Rows(self.schema, self._values[lo:hi],
                    self._timestamps[lo:hi], built)

    def scan(self, left: int, right: int) -> List[Tuple]:
        """All rows with ``left <= timestamp <= right``, as tuples."""
        return self.rows(left, right).tuples()

    def latest_timestamp(self) -> Optional[int]:
        return self._timestamps[-1] if self._timestamps else None

    def truncate_before(self, timestamp: int) -> int:
        """Discard rows older than ``timestamp``; returns the count.

        The storage manager calls this once no standing window can reach
        that far back.
        """
        cut = bisect_left(self._timestamps, timestamp)
        if cut:
            del self._values[:cut]
            del self._timestamps[:cut]
            self._dropped += cut
            gone = bisect_left(self._built_at, self._dropped)
            del self._built_at[:gone]
            del self._built[:gone]
            HISTORY_TOTALS.truncated += cut
        return cut

    def __len__(self) -> int:
        return len(self._values)

