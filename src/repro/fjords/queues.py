"""Fjord queues: the push/pull connective tissue between modules.

Section 2.3 of the paper describes Fjords as an API that lets pairs of
modules be connected by *various types of queues* so that a single plan
can mix streaming (push) and static (pull) sources:

* a **push queue** uses non-blocking enqueue and dequeue — when the queue
  is empty the consumer simply gets "no data" back and can yield;
* a **pull queue** uses blocking semantics — the consumer's dequeue
  drives the producer until data appears (the iterator model);
* **Exchange** semantics (blocking dequeue, non-blocking enqueue) fall
  out as a combination.

This is a single-threaded, cooperatively scheduled engine, so "blocking"
is modelled by *pumping*: a pull queue owns a callback that runs the
producer until it yields data or declares end-of-stream.  Every queue
keeps counters (enqueued/dequeued/dropped/high-water) that the monitoring
layer and the QoS load-shedder read.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Callable, Deque, Iterable, Optional

from repro.errors import PlanError
from repro.monitor import telemetry
import repro.monitor.tracing as tracing

#: Returned by non-blocking dequeues when no data is available.  A unique
#: sentinel (not None) so that queues can carry None as a legitimate value.
EMPTY = object()


class _FjordTotals:
    """Process-wide monotonic queue counters.

    Queues are created and destroyed constantly (every cursor owns one),
    so per-instance telemetry would churn; the hot enqueue/dequeue path
    instead bumps these plain integers, and a global collector publishes
    them — plus per-queue depths for the queues still alive — whenever a
    snapshot is taken.
    """

    __slots__ = ("enqueued", "dequeued", "dropped", "refused", "stalls")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.refused = 0
        self.stalls = 0


TOTALS = _FjordTotals()
_LIVE_QUEUES: "weakref.WeakSet[FjordQueue]" = weakref.WeakSet()


def _collect_fjord_telemetry(reg: "telemetry.MetricRegistry") -> None:
    reg.counter("tcq_fjords_enqueued_total",
                "Items accepted across every fjord queue").set_total(
        TOTALS.enqueued)
    reg.counter("tcq_fjords_dequeued_total",
                "Items drained across every fjord queue").set_total(
        TOTALS.dequeued)
    reg.counter("tcq_fjords_dropped_total",
                "Items dropped by bounded queues").set_total(TOTALS.dropped)
    reg.counter("tcq_fjords_refused_total",
                "Backpressure refusals by bounded queues").set_total(
        TOTALS.refused)
    reg.counter("tcq_fjords_stalls_total",
                "Pull-queue pumps that ended without data").set_total(
        TOTALS.stalls)
    depth = reg.gauge("tcq_fjords_queue_depth",
                      "Current depth of live named queues", ("queue",),
                      collected=True)
    fill = reg.gauge("tcq_fjords_queue_fill_fraction",
                     "Occupancy of live named queues", ("queue",),
                     collected=True)
    live = total_depth = 0
    for q in list(_LIVE_QUEUES):
        live += 1
        total_depth += len(q)
        if q.name:
            depth.labels(q.name).set(len(q))
            fill.labels(q.name).set(q.fill_fraction())
    reg.gauge("tcq_fjords_live_queues", "Queues currently alive").set(live)
    reg.gauge("tcq_fjords_buffered_items",
              "Items buffered across live queues").set(total_depth)


telemetry.register_global_collector(_collect_fjord_telemetry)


class QueueStats:
    """Counters shared by every queue flavour."""

    __slots__ = ("enqueued", "dequeued", "dropped", "high_water")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.high_water = 0

    def snapshot(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "high_water": self.high_water,
        }


class FjordQueue:
    """Base queue: bounded FIFO with non-blocking operations.

    ``capacity`` of 0 means unbounded.  Subclasses choose the semantics
    of an enqueue against a full queue and a dequeue against an empty
    one.
    """

    #: What to do when a bounded queue is full: "refuse" returns False
    #: from push (backpressure), "drop_newest" discards the incoming
    #: item, "drop_oldest" evicts the head to make room.
    OVERFLOW_POLICIES = ("refuse", "drop_newest", "drop_oldest")

    def __init__(self, capacity: int = 0, overflow: str = "refuse",
                 name: str = ""):
        if overflow not in self.OVERFLOW_POLICIES:
            raise PlanError(f"unknown overflow policy {overflow!r}")
        self.capacity = capacity
        self.overflow = overflow
        self.name = name
        self.stats = QueueStats()
        self._items: Deque[Any] = deque()
        _LIVE_QUEUES.add(self)

    # -- producer side ---------------------------------------------------
    def push(self, item: Any) -> bool:
        """Non-blocking enqueue.  Returns False iff the item was refused
        or dropped (so producers can implement backpressure)."""
        if self.capacity and len(self._items) >= self.capacity:
            if self.overflow == "refuse":
                TOTALS.refused += 1
                return False
            if self.overflow == "drop_newest":
                self.stats.dropped += 1
                TOTALS.dropped += 1
                return False
            # drop_oldest: evict head, admit the new item.
            self._items.popleft()
            self.stats.dropped += 1
            TOTALS.dropped += 1
        self._items.append(item)
        self.stats.enqueued += 1
        TOTALS.enqueued += 1
        if len(self._items) > self.stats.high_water:
            self.stats.high_water = len(self._items)
        # One module-attribute + bool test when tracing is off; the item
        # is only inspected for a trace once a tracer is active.
        if tracing.TRACER.active:
            tracing.note_hop(item, "queue", self.name or "anon", "in")
        return True

    def push_all(self, items: Iterable[Any]) -> int:
        """Enqueue each item; returns how many were accepted."""
        accepted = 0
        for item in items:
            if self.push(item):
                accepted += 1
        return accepted

    def push_many(self, items: Iterable[Any]) -> int:
        """Bulk enqueue: one deque extend and one counter update for the
        whole batch on the unbounded fast path (the vectorized pipeline's
        transfer granularity); bounded queues keep exact per-item
        overflow semantics."""
        if self.capacity:
            return self.push_all(items)
        items = items if isinstance(items, (list, tuple)) else list(items)
        n = len(items)
        if not n:
            return 0
        self._items.extend(items)
        self.stats.enqueued += n
        TOTALS.enqueued += n
        depth = len(self._items)
        if depth > self.stats.high_water:
            self.stats.high_water = depth
        if tracing.TRACER.active:
            site = self.name or "anon"
            for item in items:
                tracing.note_hop(item, "queue", site, "in")
        return n

    # -- consumer side ---------------------------------------------------
    def pop(self) -> Any:
        """Non-blocking dequeue: returns :data:`EMPTY` when nothing is
        buffered (push semantics — control returns to the consumer)."""
        if not self._items:
            return EMPTY
        self.stats.dequeued += 1
        TOTALS.dequeued += 1
        item = self._items.popleft()
        if tracing.TRACER.active:
            tracing.note_hop(item, "queue", self.name or "anon", "out")
        return item

    def pop_many(self, max_items: int) -> list:
        """Bulk dequeue: up to ``max_items`` items with one counter
        update.  Returns a (possibly empty) list — the batch-granularity
        mirror of :meth:`pop`."""
        items = self._items
        if not items or max_items <= 0:
            return []
        if max_items >= len(items):         # drain: no per-item call
            out = list(items)
            items.clear()
        else:
            popleft = items.popleft
            out = [popleft() for _ in range(max_items)]
        n = len(out)
        self.stats.dequeued += n
        TOTALS.dequeued += n
        if tracing.TRACER.active:
            site = self.name or "anon"
            for item in out:
                tracing.note_hop(item, "queue", site, "out")
        return out

    def peek(self) -> Any:
        return self._items[0] if self._items else EMPTY

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        # A queue is truthy whether or not it holds data: without this,
        # ``__len__`` would make an empty queue falsy and ``if q`` /
        # ``q or default`` would read "no queue attached".  Ask for data
        # with ``len(q)`` or ``q._items``.
        return True

    @property
    def is_full(self) -> bool:
        return bool(self.capacity) and len(self._items) >= self.capacity

    def fill_fraction(self) -> float:
        """Occupancy in [0, 1]; unbounded queues report 0 when empty and
        scale against the observed high-water mark instead."""
        if self.capacity:
            return len(self._items) / self.capacity
        if not self.stats.high_water:
            return 0.0
        return len(self._items) / self.stats.high_water

    def __repr__(self) -> str:
        cap = self.capacity or "inf"
        return (f"{type(self).__name__}({self.name or 'anon'}, "
                f"len={len(self._items)}, cap={cap})")


class PushQueue(FjordQueue):
    """Non-blocking enqueue *and* dequeue — the streaming connection.

    Exactly the base behaviour; the class exists so plans read naturally
    (``PushQueue`` vs ``PullQueue`` declares intent).
    """


class PullQueue(FjordQueue):
    """Blocking-dequeue semantics via a producer pump.

    When the consumer pops an empty queue, the queue invokes its
    ``producer`` callback repeatedly; the callback should run the
    producing module one step and return True while it may still yield
    data.  This reproduces the iterator model on top of the same queue
    machinery, which is the point of Fjords: modules don't know which
    flavour they are attached to.
    """

    def __init__(self, capacity: int = 0, overflow: str = "refuse",
                 name: str = "", producer: Optional[Callable[[], bool]] = None,
                 max_pump: int = 1_000_000):
        super().__init__(capacity=capacity, overflow=overflow, name=name)
        self.producer = producer
        self.max_pump = max_pump

    def pop(self) -> Any:
        if not self._items and self.producer is not None:
            pumps = 0
            while not self._items and pumps < self.max_pump:
                alive = self.producer()
                pumps += 1
                if not alive:
                    break
            if not self._items:
                # The pump ran dry: the consumer blocked for nothing.
                TOTALS.stalls += 1
        return super().pop()

    def pop_many(self, max_items: int) -> list:
        if not self._items and self.producer is not None:
            first = self.pop()       # runs the pump (and counts a stall)
            if first is EMPTY:
                return []
            return [first] + super().pop_many(max_items - 1)
        return super().pop_many(max_items)


class ExchangeQueue(PullQueue):
    """Graefe-style Exchange semantics: producers push asynchronously
    (non-blocking enqueue) while the consumer blocks on dequeue.

    In our cooperative model this is a PullQueue whose pump runs the
    producer side of an exchange; it exists mainly so Flux, which the
    paper calls "a generalization of the Exchange module", has the
    precise primitive to generalise.
    """
