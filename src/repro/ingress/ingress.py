"""The one Ingress door: where a batch of tuples enters the system.

Three flavours configure an :class:`IngressPoint` instead of
re-implementing it: the server's per-stream point (client pushes from
either transport — :meth:`TelegraphCQServer.push_rows` is the only code
that builds the tuples it admits),
:class:`~repro.fjords.module.SourceModule` (fjord dataflows polling the
outside world) and :class:`~repro.ingress.wrappers.Streamer` (the
Wrapper role fanning out to executor queues).

Every ingress owes the rest of the system exactly four things, and
:meth:`IngressPoint.admit` is the only body that pays them, once per
batch and in this order:

1. **admission** — an optional QoS shedder
   (:class:`~repro.monitor.qos.LoadShedder`-shaped, duck-typed) filters
   the batch before any state is touched;
2. **timestamping** — a tuple without an event time gets the point's
   monotone ingestion sequence;
3. **materialisation** — the kept tuples are appended to the stream's
   historical store (when the point has one).  The append is
   all-or-nothing, so a batch the store refuses (a missing or
   out-of-order timestamp) leaves the store, the counters and the
   consumer untouched;
4. **trace attachment and delivery** — when sampled tracing is on, the
   Nth arrival gets a :class:`~repro.monitor.tracing.TraceContext`
   (idempotently: a tuple that already carries one keeps it, so a
   tuple re-admitted at a second point is traced once); then the
   *admitted batch*, in arrival order, goes to the flavour's consumer.

``accepted`` and ``shed`` are the only ingress counters in the system:
the server's ``tuples_ingested``, ``tcq_server_ingress_tuples_total`` and
``tcq_net_push_shed_total`` all read them.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List, Optional

import repro.monitor.tracing as tracing


class IngressPoint:
    """One configured ingress door.

    ``deliver`` is the flavour's consumer and receives each admitted
    batch as a list (engine routing, fjord queue pushes, module emits);
    ``store`` materialises history; ``shedder`` gates admission;
    ``assign_timestamps`` stamps tuples that arrive without one.
    """

    __slots__ = ("name", "deliver", "store", "shedder",
                 "assign_timestamps", "_seq", "accepted", "shed")

    def __init__(self, name: str,
                 deliver: Callable[[List[Any]], Any],
                 store: Optional[Any] = None,
                 shedder: Optional[Any] = None,
                 assign_timestamps: bool = False):
        self.name = name
        self.deliver = deliver
        self.store = store
        self.shedder = shedder
        self.assign_timestamps = assign_timestamps
        self._seq = itertools.count(1)
        self.accepted = 0
        self.shed = 0

    def admit(self, tuples: Iterable[Any]) -> int:
        """Admit a batch (shedding decides on the whole batch at once);
        returns how many tuples were delivered."""
        offered: List[Any] = list(tuples)
        batch = offered if self.shedder is None \
            else self.shedder.admit(offered)
        if self.assign_timestamps:
            for t in batch:
                if t.timestamp is None:
                    t.timestamp = next(self._seq)
        if self.store is not None:
            self.store.extend(batch)
        tracer = tracing.TRACER
        if tracer.active:
            for t in batch:
                if t.trace is None:     # re-admitted: keep the first trace
                    tracer.maybe_start(t, self.name)
        self.shed += len(offered) - len(batch)
        self.accepted += len(batch)
        if batch:
            self.deliver(batch)
        return len(batch)

    def admit_one(self, t: Any) -> bool:
        """Admit a single tuple; returns False when shed."""
        return self.admit((t,)) == 1

    def __repr__(self) -> str:
        return (f"IngressPoint({self.name}, accepted={self.accepted}, "
                f"shed={self.shed})")
