"""The Fjord module contract.

Every dataflow operator in the system — relational operators, SteMs,
eddies, ingress wrappers, Flux, Juggle — implements this small interface.
A module:

* owns zero or more *input ports* and *output ports*, each bound to a
  :class:`~repro.fjords.queues.FjordQueue` by the enclosing
  :class:`~repro.fjords.fjord.Fjord`;
* is driven by ``run_once()``, which must be **non-blocking**: consume at
  most a bounded amount of input, emit results, and return a
  :class:`StepResult` telling the scheduler whether useful work happened.

Together with the ``ready()`` / ``pressure()`` hints below, every module
satisfies the unified :class:`repro.sched.protocol.Schedulable`
protocol, so any module can be hosted directly by a
:class:`repro.sched.Scheduler` under any policy.

Modules are agnostic to push vs pull: they always use the non-blocking
queue API, and the queue flavour decides whether a pop pumps upstream.
That is exactly the design point of Section 2.3.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

from repro.core.tuples import Punctuation, Tuple, TupleBatch, is_eos
from repro.errors import PlanError
from repro.fjords.queues import EMPTY, FjordQueue
import repro.monitor.tracing as tracing
# StepResult is canonically defined by the scheduler protocol now; it is
# re-exported here because every module author imports it from this
# module historically.
from repro.sched.protocol import StepResult

__all__ = ["CollectingSink", "Module", "SinkModule", "SourceModule",
           "StepResult"]


class Module:
    """Base class for all dataflow modules.

    Subclasses usually override :meth:`process`, which maps one input
    item to zero or more outputs; modules needing full control (eddies,
    Flux) override :meth:`run_once` instead.
    """

    #: How many items to consume per scheduling quantum by default.
    DEFAULT_BATCH = 16

    def __init__(self, name: str = "", arity_in: int = 1, arity_out: int = 1):
        self.name = name or type(self).__name__
        self.inputs: List[Optional[FjordQueue]] = [None] * arity_in
        self.outputs: List[Optional[FjordQueue]] = [None] * arity_out
        self.finished = False
        self._eos_seen = 0
        self.tuples_in = 0
        self.tuples_out = 0

    # -- wiring ----------------------------------------------------------
    def bind_input(self, port: int, queue: FjordQueue) -> None:
        if port >= len(self.inputs):
            raise PlanError(
                f"{self.name} has {len(self.inputs)} input ports, "
                f"cannot bind port {port}")
        self.inputs[port] = queue

    def bind_output(self, port: int, queue: FjordQueue) -> None:
        if port >= len(self.outputs):
            raise PlanError(
                f"{self.name} has {len(self.outputs)} output ports, "
                f"cannot bind port {port}")
        self.outputs[port] = queue

    def _require_wired(self) -> None:
        for i, q in enumerate(self.inputs):
            if q is None:
                raise PlanError(f"{self.name}: input port {i} is unbound")
        for i, q in enumerate(self.outputs):
            if q is None:
                raise PlanError(f"{self.name}: output port {i} is unbound")

    # -- scheduler hints ---------------------------------------------------
    def ready(self) -> bool:
        """Cheap Schedulable hint: is there input to consume right now?

        Policies that poll regardless (round-robin) ignore this; the
        pressure-aware policy and the idle detector use it to avoid
        burning quanta on provably idle modules.
        """
        return any(q is not None and q.has_ready_data()
                   for q in self.inputs)

    def pressure(self) -> float:
        """Downstream occupancy in [0, 1]: the max fill fraction of the
        module's *bounded* output queues (unbounded queues exert no
        backpressure).  1.0 means a push would be refused or dropped."""
        worst = 0.0
        for q in self.outputs:
            if q is not None and q.capacity:
                frac = q.fill_fraction()
                if frac > worst:
                    worst = frac
        return worst

    # -- emission helpers --------------------------------------------------
    def emit(self, item: Any, port: int = 0) -> bool:
        queue = self.outputs[port]
        if queue is None:
            raise PlanError(f"{self.name}: output port {port} is unbound")
        if isinstance(item, Tuple):
            self.tuples_out += 1
        elif isinstance(item, TupleBatch):
            # A batch moves as ONE queue item but counts as its rows.
            self.tuples_out += len(item)
        return queue.push(item)

    def emit_all(self, items: Iterable[Any], port: int = 0) -> None:
        for item in items:
            self.emit(item, port)

    # -- the scheduling hook ----------------------------------------------
    def run_once(self, batch: Optional[int] = None) -> StepResult:
        """Consume up to ``batch`` items from input port 0, route each
        through :meth:`process`, and forward punctuation.

        End-of-stream handling: once EOS has been seen on every input
        port, :meth:`on_end_of_stream` runs (operators flush state there)
        and EOS is propagated downstream exactly once.
        """
        if self.finished:
            return StepResult.DONE
        budget = batch if batch is not None else self.DEFAULT_BATCH
        worked = False
        for _ in range(budget):
            port, item = self._next_input()
            if item is EMPTY:
                break
            worked = True
            if is_eos(item):
                self._eos_seen += 1
                if self._eos_seen >= len(self.inputs):
                    self._finish()
                    return StepResult.DONE
                continue
            if isinstance(item, Punctuation):
                self.on_punctuation(item, port)
                continue
            if isinstance(item, TupleBatch):
                # Batch-granularity transfer: one queue item, many rows.
                self.tuples_in += len(item)
                for out in self.process_batch(item, port):
                    self.emit(out)
                continue
            self.tuples_in += 1
            for out in self.process(item, port):
                self.emit(out)
        return StepResult.BUSY if worked else StepResult.IDLE

    def _next_input(self) -> "tuple[int, Any]":
        """Round-robin over input ports; returns (port, item)."""
        for port, queue in enumerate(self.inputs):
            if queue is None:
                continue
            item = queue.pop()
            if item is not EMPTY:
                return port, item
        return -1, EMPTY

    def _finish(self) -> None:
        for out in self.on_end_of_stream():
            self.emit(out)
        self.finished = True
        for port in range(len(self.outputs)):
            if self.outputs[port] is not None:
                self.emit(Punctuation.eos(self.name), port)

    # -- operator hooks ----------------------------------------------------
    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        """Map one input tuple to zero or more output tuples."""
        raise NotImplementedError

    def process_batch(self, batch: TupleBatch, port: int) -> Iterable[Any]:
        """Map one input batch to zero or more outputs.

        The default degenerates to a row loop over :meth:`process`, so
        every module accepts batches; vectorized modules (eddies,
        Select) override with real kernels and may emit whole batches.
        """
        out: List[Any] = []
        for t in batch.materialize():
            out.extend(self.process(t, port))
        return out

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        """Non-EOS punctuation (e.g. window boundaries) forwards by
        default so downstream modules see the same control stream."""
        self.emit(punctuation)

    def on_end_of_stream(self) -> Iterable[Tuple]:
        """Flush hook: blocking-by-nature operators (sort, aggregation
        over a closed input) emit their buffered results here."""
        return ()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SourceModule(Module):
    """A module with no inputs that produces tuples on demand.

    ``generate()`` yields the next batch (possibly empty); returning an
    empty batch while :attr:`exhausted` is False means "no data right
    now" (a quiet push source).
    """

    def __init__(self, name: str = ""):
        super().__init__(name=name, arity_in=0, arity_out=1)
        self.exhausted = False
        # Sources are the dataflow's ingress door: the shared
        # IngressPoint handles trace sampling so standalone fjord plans
        # get end-to-end traces too.  Deferred import: fjords is a
        # lower layer than ingress.
        from repro.ingress.ingress import IngressPoint
        self.point = IngressPoint(self.name, deliver=self._emit_each)

    def _emit_each(self, batch: List[Any]) -> None:
        for item in batch:
            self.emit(item)

    def ready(self) -> bool:
        # A source must be polled while live: only it knows whether the
        # outside world has data (a quiet push source still returns
        # IDLE, which the quiescence detector handles).
        return not self.finished

    def generate(self, batch: int) -> Iterable[Any]:
        raise NotImplementedError

    def run_once(self, batch: Optional[int] = None) -> StepResult:
        if self.finished:
            return StepResult.DONE
        budget = batch if batch is not None else self.DEFAULT_BATCH
        produced = False
        for item in self.generate(budget):
            produced = True
            if isinstance(item, Tuple):
                self.point.admit_one(item)
            else:
                # Punctuation and batches bypass the ingress door: they
                # are control flow / pre-traced, not fresh arrivals.
                self.emit(item)
        if self.exhausted:
            self._finish()
            return StepResult.DONE
        return StepResult.BUSY if produced else StepResult.IDLE


class SinkModule(Module):
    """Collects everything that reaches it; the client-side endpoint.

    The engine's per-client output queues (Figure 5) are SinkModules in
    this reproduction; tests read :attr:`results`.
    """

    def __init__(self, name: str = ""):
        super().__init__(name=name, arity_in=1, arity_out=0)
        self.results: List[Tuple] = []
        self.punctuations: List[Punctuation] = []

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        self.results.append(item)
        if tracing.TRACER.active:
            tracing.note_hop(item, "egress", self.name)
            tracing.finish_item(item, self.name)
        return ()

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        self.punctuations.append(punctuation)

    def _finish(self) -> None:
        # No outputs to propagate EOS to.
        self.finished = True

    def windows(self) -> List[List[Tuple]]:
        """Split results into the per-window sets delimited by
        WINDOW_BOUNDARY punctuation (the paper's "sequence of sets")."""
        # Punctuation ordering relative to results is preserved only if
        # the producer interleaves them; SinkModule records arrival order
        # in a merged log for that purpose.
        raise NotImplementedError(
            "use CollectingSink for windowed result retrieval")


class CollectingSink(Module):
    """A sink that preserves the interleaving of tuples and punctuation,
    exposing results as the paper's sequence-of-sets."""

    def __init__(self, name: str = ""):
        super().__init__(name=name, arity_in=1, arity_out=0)
        self.log: List[Any] = []

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        self.log.append(item)
        if tracing.TRACER.active:
            tracing.note_hop(item, "egress", self.name)
            tracing.finish_item(item, self.name)
        return ()

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        self.log.append(punctuation)

    def _finish(self) -> None:
        self.finished = True

    @property
    def results(self) -> List[Tuple]:
        return [x for x in self.log if isinstance(x, Tuple)]

    def windows(self) -> List[List[Tuple]]:
        """Group logged tuples into windows separated by boundary
        punctuation; a trailing open window is included if non-empty."""
        out: List[List[Tuple]] = []
        current: List[Tuple] = []
        for item in self.log:
            if isinstance(item, Punctuation) and \
                    item.kind == Punctuation.WINDOW_BOUNDARY:
                out.append(current)
                current = []
            elif isinstance(item, Tuple):
                current.append(item)
        if current:
            out.append(current)
        return out
