"""The Wrapper host and streamers (Section 4.2.3, Figure 5).

In TelegraphCQ proper, wrappers live in their own OS process "where they
can be accessed in a non-blocking manner (a la Fjords)", fetching from
the network with a thread pool and handing tuples to the Executor
through shared memory.  Here the process boundary becomes an object
boundary with the same contract:

* :class:`WrapperHost` owns a set of :class:`~repro.ingress.sources.
  DataSource` objects and polls them round-robin, never blocking on a
  quiet one;
* :class:`Streamer` prepares the polled tuples for consumption —
  assigning ingestion timestamps when the source has none, appending to
  the stream's :class:`~repro.core.windows.HistoricalStore` (the
  "materialization in the buffer pool") and pushing to a Fjord queue for
  direct delivery to the Executor;
* :class:`StreamScanner` is the "scanner operator ... driven by window
  descriptors": a Fjord source module that replays a window's worth of
  historical tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.tuples import Punctuation, Tuple
from repro.core.windows import ForLoopSpec, HistoricalStore
from repro.errors import ExecutionError
from repro.fjords.module import SourceModule
from repro.fjords.queues import FjordQueue
from repro.ingress.ingress import IngressPoint
from repro.ingress.sources import DataSource


class Streamer:
    """Produces tuples for one stream: timestamping + fan-out.

    A streamer can deliver to any number of Fjord queues (direct
    delivery to executors) and optionally materialise into a
    HistoricalStore so later queries can read the past.  The four
    ingress obligations (timestamping, trace attachment, admission,
    store + delivery) live in the configured
    :class:`~repro.ingress.ingress.IngressPoint`, not here.
    """

    def __init__(self, stream: str,
                 store: Optional[HistoricalStore] = None):
        self.stream = stream
        self.store = store
        self._queues: List[FjordQueue] = []
        self.point = IngressPoint(
            stream, deliver=self._push_all, store=store,
            assign_timestamps=True)

    def _push_all(self, batch: List[Tuple]) -> None:
        for t in batch:
            for q in self._queues:
                q.push(t)

    @property
    def delivered(self) -> int:
        return self.point.accepted

    def attach_queue(self, queue: FjordQueue) -> None:
        self._queues.append(queue)

    def deliver(self, tuples: Iterable[Tuple]) -> int:
        return self.point.admit(tuples)

    def close(self) -> None:
        for q in self._queues:
            q.push(Punctuation.eos(self.stream))


class WrapperHost:
    """Hosts ingress sources and pumps them without blocking.

    ``step(now)`` gives every registered source one bounded poll — the
    cooperative analogue of the wrapper process's non-blocking I/O
    thread pool.  A source that yields nothing simply contributes
    nothing this tick.
    """

    def __init__(self, poll_budget: int = 64):
        self.poll_budget = poll_budget
        self._sources: Dict[str, DataSource] = {}
        self._streamers: Dict[str, Streamer] = {}
        self.clock = 0

    def register(self, source: DataSource, streamer: Streamer) -> None:
        if source.name in self._sources:
            raise ExecutionError(f"duplicate source {source.name!r}")
        self._sources[source.name] = source
        self._streamers[source.name] = streamer

    def step(self, now: Optional[int] = None) -> int:
        """Poll every live source once; returns tuples moved."""
        self.clock = self.clock + 1 if now is None else now
        moved = 0
        for name, source in list(self._sources.items()):
            if source.exhausted:
                continue
            batch = source.poll(self.clock, self.poll_budget)
            if batch:
                moved += self._streamers[name].deliver(batch)
            if source.exhausted:
                self._streamers[name].close()
        return moved

    def run_until_exhausted(self, max_ticks: int = 1_000_000) -> int:
        """Drive all sources to completion; returns total tuples."""
        total = 0
        for _ in range(max_ticks):
            total += self.step()
            if all(s.exhausted for s in self._sources.values()):
                return total
        raise ExecutionError("wrapper sources did not exhaust in time")

    @property
    def all_exhausted(self) -> bool:
        return all(s.exhausted for s in self._sources.values())


class WrapperSourceModule(SourceModule):
    """Adapts a :class:`DataSource` directly into a Fjord source module,
    for plans that bypass the WrapperHost (single-dataflow tests)."""

    def __init__(self, source: DataSource, name: str = ""):
        super().__init__(name=name or f"wrap[{source.name}]")
        self.source = source
        self._clock = 0

    def generate(self, batch: int) -> Iterable[Tuple]:
        self._clock += 1
        out = self.source.poll(self._clock, batch)
        if self.source.exhausted:
            self.exhausted = True
        return out


class StreamScanner(SourceModule):
    """Replays one stream window-by-window from a HistoricalStore.

    For each iteration of the for-loop spec it emits the window's tuples
    followed by a WINDOW_BOUNDARY punctuation, so downstream operators
    (aggregates, sort, dup-elim) produce the paper's sequence of sets.
    """

    def __init__(self, store: HistoricalStore, spec: ForLoopSpec,
                 name: str = ""):
        super().__init__(name=name or f"scan[{store.stream}]")
        self.store = store
        self.spec = spec
        self._iterator = iter(spec)

    def generate(self, batch: int) -> Iterable[Tuple]:
        try:
            instance = next(self._iterator)
        except StopIteration:
            self.exhausted = True
            return ()
        lo, hi = instance.bounds_for(self.store.stream)
        out: List = list(self.store.scan(lo, hi))
        out.append(Punctuation.window_boundary(payload=instance.t))
        return out
