"""The one Ingress door: where a batch of rows enters the system.

Three flavours configure an :class:`IngressPoint` instead of
re-implementing it: the server's per-stream point (client pushes from
either transport — :meth:`TelegraphCQServer.push_rows` is the only code
that turns client rows into the batch it admits),
:class:`~repro.fjords.module.SourceModule` (fjord dataflows polling the
outside world) and :class:`~repro.ingress.wrappers.Streamer` (the
Wrapper role fanning out to executor queues).

The unit is a :class:`~repro.core.tuples.Rows` batch: value tuples and
their stamps, plus the :class:`~repro.core.tuples.Tuple` of any row that
already exists as one.  The door builds a tuple only for a row it must
hand to someone as one: a sampled row, and every row a shedder that is
actually dropping classifies.

Every ingress owes the rest of the system exactly four things, and
:meth:`IngressPoint.admit` is the only body that pays them, once per
batch and in this order:

1. **timestamping** — a row without an event time gets the point's
   clock + 1 (when the point assigns timestamps); a point with a store
   refuses the whole batch when a stamp is missing or behind its clock,
   before anything moves.  The clock then moves to the batch's last
   stamp, whether that row is kept or shed;
2. **admission** — an optional QoS shedder
   (:class:`~repro.monitor.qos.LoadShedder`-shaped, duck-typed: it
   filters a sequence of tuples) decides on the batch.  A shedder that
   hands the batch back unchanged costs no tuple;
3. **trace attachment and materialisation** — when sampled tracing is
   on, the Nth arrival gets a
   :class:`~repro.monitor.tracing.TraceContext` (idempotently: a tuple
   that already carries one keeps it, so a tuple re-admitted at a second
   point is traced once); the kept rows are then appended to the
   stream's historical store (when the point has one);
4. **delivery** — the *admitted batch*, in arrival order, goes to the
   flavour's consumer.

``accepted`` and ``shed`` are the only ingress counters in the system:
the server's ``tuples_ingested``, ``tcq_server_ingress_tuples_total`` and
``tcq_net_push_shed_total`` all read them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Union

import repro.monitor.tracing as tracing
from repro.core.tuples import Rows, Tuple
from repro.core.windows import check_order


class IngressPoint:
    """One configured ingress door.

    ``deliver`` is the flavour's consumer and receives each admitted
    batch as a :class:`~repro.core.tuples.Rows` (engine routing, fjord
    queue pushes, module emits); ``store`` materialises history;
    ``shedder`` gates admission; ``assign_timestamps`` stamps rows that
    arrive without one.  ``clock`` is the last stamp the point saw
    (None before the first).
    """

    __slots__ = ("name", "deliver", "store", "shedder",
                 "assign_timestamps", "clock", "accepted", "shed")

    def __init__(self, name: str,
                 deliver: Callable[[Rows], Any],
                 store: Optional[Any] = None,
                 shedder: Optional[Any] = None,
                 assign_timestamps: bool = False):
        self.name = name
        self.deliver = deliver
        self.store = store
        self.shedder = shedder
        self.assign_timestamps = assign_timestamps
        self.clock: Optional[int] = None
        self.accepted = 0
        self.shed = 0

    def admit(self, batch: Union[Rows, Iterable[Tuple]]) -> int:
        """Admit a batch (shedding decides on the whole batch at once);
        returns how many rows were delivered.  ``batch`` is a
        :class:`~repro.core.tuples.Rows` or already-built tuples."""
        if not isinstance(batch, Rows):
            batch = Rows.of(batch)
        offered = len(batch)
        if not offered:
            return 0
        stamps = batch.stamps
        if self.assign_timestamps:
            self._stamp(batch)
        if self.store is not None:
            check_order(f"ingress {self.name!r}", stamps, self.clock)
        kept = batch
        if self.shedder is not None:
            admitted = self.shedder.admit(batch)
            if admitted is not batch:
                kept = Rows.of(admitted, batch.schema)
        tracer = tracing.TRACER
        if tracer.active:
            built = kept.built
            for i in range(len(kept)):
                t = built.get(i)
                # re-admitted: keep the first trace
                if (t is None or t.trace is None) and tracer.due():
                    kept.at(i).trace = tracer.start(self.name)
        if self.store is not None and kept:
            self.store.extend(kept)
        if stamps[-1] is not None:
            self.clock = stamps[-1]
        self.shed += offered - len(kept)
        self.accepted += len(kept)
        if kept:
            self.deliver(kept)
        return len(kept)

    def _stamp(self, batch: Rows) -> None:
        """Give each row without a timestamp the clock + 1, in order."""
        stamps = batch.stamps
        clock = self.clock or 0
        for i, ts in enumerate(stamps):
            if ts is None:
                ts = stamps[i] = clock + 1
                t = batch.built.get(i)
                if t is not None:
                    t.timestamp = ts
            clock = ts

    def admit_one(self, t: Any) -> bool:
        """Admit a single tuple; returns False when shed."""
        return self.admit((t,)) == 1

    def __repr__(self) -> str:
        return (f"IngressPoint({self.name}, accepted={self.accepted}, "
                f"shed={self.shed})")
