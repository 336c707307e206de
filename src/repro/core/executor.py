"""The TelegraphCQ Executor: Execution Objects and Dispatch Units
(Section 4.2.2), on the unified scheduler core.

The executor maps "our shared continuous processing model onto a thread
structure that will allow for adaptivity while incurring minimal
overhead".  The design points reproduced here:

* **Execution Objects (EOs)** — the units the OS would schedule (one
  system thread each).  Here they are cooperatively scheduled; each EO
  hosts a round-robin :class:`repro.sched.scheduler.Scheduler` over its
  DUs, and the executor itself runs the EOs under a top-level scheduler
  — every layer speaks the one
  :class:`~repro.sched.protocol.Schedulable` protocol.
* **Dispatch Units (DUs)** — non-preemptive work abstractions following
  the Fjords model: ``run_once`` does a bounded quantum and returns a
  :class:`~repro.sched.protocol.StepResult`; a DU that reports
  finished leaves its EO at the end of that pass.  A DU can host (mode 1) a
  traditional one-shot plan, (mode 2) a single-eddy dataflow, or
  (mode 3) a shared continuous-query eddy — the three modes the paper
  lists.
* **Query classes by footprint** — queries over overlapping stream sets
  land in the same EO (so they can share SteMs and grouped filters);
  disjoint footprints get separate EOs.  Implemented with a union-find
  over stream names, maintained online as queries come and go.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (Any, Callable, Deque, Dict, FrozenSet, Iterable, List,
                    Optional, Set, Tuple as TypingTuple)

from repro.errors import ExecutionError
from repro.monitor.telemetry import get_registry
from repro.sched.protocol import StepResult, coerce_step_result
from repro.sched.scheduler import Scheduler, drive


class DispatchUnit:
    """A non-preemptive unit of work inside an EO.

    ``step`` may return a bool (legacy) or a
    :class:`~repro.sched.protocol.StepResult`; ``run_once`` always
    returns a StepResult.
    """

    #: paper's three DU modes.
    MODE_TRADITIONAL = 1
    MODE_SINGLE_EDDY = 2
    MODE_SHARED_CQ = 3

    def __init__(self, name: str, mode: int,
                 step: Callable[[int], Any],
                 is_finished: Callable[[], bool] = lambda: False):
        self.name = name
        self.mode = mode
        self._step = step
        self._is_finished = is_finished
        self.quanta = 0
        self.busy_quanta = 0

    def run_once(self, batch: int = 16) -> StepResult:
        """One quantum; returns the unit's :class:`StepResult`."""
        self.quanta += 1
        result = coerce_step_result(self._step(batch))
        if result.worked:
            self.busy_quanta += 1
        return result

    @property
    def finished(self) -> bool:
        return self._is_finished()

    def __repr__(self) -> str:
        return f"DispatchUnit({self.name}, mode={self.mode})"


class ExecutionObject:
    """One would-be system thread hosting DUs under a local round-robin
    scheduler: every DU gets one quantum per pass."""

    def __init__(self, eo_id: int):
        self.eo_id = eo_id
        self.name = f"eo{eo_id}"
        self.scheduler = Scheduler(name=self.name)
        #: quanta run by DUs that have since finished and left.
        self.retired_quanta = 0

    def add(self, du: DispatchUnit) -> None:
        self.scheduler.add(du)

    def remove(self, name: str) -> None:
        self.scheduler.remove(name)

    def step(self, batch: int = 16) -> StepResult:
        """One pass over the DUs; a DU finished by the end of it leaves
        the EO, and its quanta fold into :attr:`retired_quanta`."""
        result = self.scheduler.pass_once(batch)
        for du in self.scheduler.units:
            if du.finished:
                self.scheduler.remove(du.name)
                self.retired_quanta += du.quanta
        return result

    # -- Schedulable (the executor's top-level scheduler hosts EOs) --------
    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        return self.step(16 if quantum is None else quantum)

    @property
    def finished(self) -> bool:
        # An EO is never *finished*: new DUs fold in at any time.  Its
        # quiescence shows up as IDLE passes instead.
        return False

    # -- introspection -----------------------------------------------------
    @property
    def dispatch_units(self) -> List[DispatchUnit]:
        return self.scheduler.units

    @property
    def passes(self) -> int:
        return self.scheduler.passes

    @property
    def live_units(self) -> int:
        return self.scheduler.live_units

    def __repr__(self) -> str:
        return (f"ExecutionObject(#{self.eo_id}, "
                f"{len(self.dispatch_units)} DUs)")


class FootprintClasses:
    """Online union-find over stream names.

    ``class_of(footprint)`` unions the footprint's streams and returns
    the representative — queries whose footprints transitively overlap
    share a class, disjoint ones do not (the paper's initial policy:
    "we create query classes for disjoint sets of footprints").
    """

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._rank: Dict[str, int] = {}

    def _find(self, stream: str) -> str:
        # Iterative find + full path compression: long-lived servers can
        # accumulate union chains, and recursion would cap the class
        # size at the interpreter's recursion limit.
        parent = self._parent
        if stream not in parent:
            parent[stream] = stream
            self._rank[stream] = 0
            return stream
        root = stream
        while parent[root] != root:
            root = parent[root]
        while parent[stream] != root:
            parent[stream], stream = root, parent[stream]
        return root

    def _union(self, a: str, b: str) -> str:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    def class_of(self, footprint: Iterable[str]) -> str:
        streams = list(footprint)
        if not streams:
            raise ExecutionError("empty query footprint")
        root = self._find(streams[0])
        for s in streams[1:]:
            root = self._union(root, s)
        return root

    def peek(self, footprint: Iterable[str]) -> Set[str]:
        """The set of current class representatives the footprint's
        streams belong to, WITHOUT unioning (introspection)."""
        return {self._find(s) for s in footprint}


class Executor:
    """EO manager + the query-plan queue (Figure 5's QPQueue).

    New work arrives via :meth:`enqueue_plan` (from the FrontEnd) and is
    "dynamically folded into the running executor" at the start of the
    next step, as in the paper.  The EOs themselves run under a
    top-level round-robin :class:`repro.sched.scheduler.Scheduler`, so
    the whole executor is one scheduler tree speaking StepResult end to
    end.
    """

    def __init__(self) -> None:
        self._eos: Dict[str, ExecutionObject] = {}
        self._next_eo_id = itertools.count()
        self.footprints = FootprintClasses()
        #: the QPQueue: (footprint, DU) pairs awaiting fold-in.
        self._plan_queue: Deque[TypingTuple[FrozenSet[str], DispatchUnit]] = \
            deque()
        self._eo_sched = Scheduler(name="executor")
        self.steps = 0
        self.plans_folded = 0
        self._telemetry = get_registry()
        self._telemetry.register_collector(self._publish_telemetry)

    # -- FrontEnd side ----------------------------------------------------------
    def enqueue_plan(self, footprint: Iterable[str],
                     du: DispatchUnit) -> None:
        self._plan_queue.append((frozenset(footprint), du))

    # -- executor side -----------------------------------------------------------
    def _fold_in_new_plans(self) -> int:
        folded = 0
        while self._plan_queue:
            footprint, du = self._plan_queue.popleft()
            eo = self.eo_for(footprint)
            eo.add(du)
            folded += 1
        self.plans_folded += folded
        return folded

    def _new_eo(self) -> ExecutionObject:
        eo = ExecutionObject(next(self._next_eo_id))
        self._eo_sched.add(eo)
        return eo

    def eo_for(self, footprint: Iterable[str]) -> ExecutionObject:
        """The EO responsible for a footprint's query class.

        Unioning may merge previously distinct classes (a new query
        spans two stream groups); their EOs are merged too.
        """
        before = self.footprints.peek(footprint)
        root = self.footprints.class_of(footprint)
        stale = [rep for rep in before if rep != root and rep in self._eos]
        if root not in self._eos:
            # Reuse a merged EO if one exists, else create fresh.
            if stale:
                self._eos[root] = self._eos.pop(stale.pop(0))
            else:
                self._eos[root] = self._new_eo()
        for rep in stale:
            merged = self._eos.pop(rep)
            self._eo_sched.remove(merged.name)
            for du in merged.dispatch_units:
                self._eos[root].add(du)
            self._eos[root].retired_quanta += merged.retired_quanta
        return self._eos[root]

    def step(self, batch: int = 16) -> StepResult:
        """One scheduling round over every EO."""
        self.steps += 1
        self._fold_in_new_plans()
        return self._eo_sched.pass_once(batch)

    def run_until_quiescent(self, max_steps: int = 1_000_000,
                            batch: int = 16) -> int:
        return drive(lambda: self.step(batch), max_steps)

    # -- telemetry -----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        reg.counter("tcq_executor_steps_total",
                    "Scheduling rounds over every EO",
                    collected=True).set_total(self.steps)
        reg.counter("tcq_executor_plans_folded_total",
                    "DUs folded in from the QPQueue",
                    collected=True).set_total(self.plans_folded)
        reg.gauge("tcq_executor_eos", "Live Execution Objects",
                  collected=True).set(len(self._eos))
        reg.gauge("tcq_executor_dus", "Dispatch Units across all EOs",
                  collected=True).set(
            sum(len(eo.dispatch_units) for eo in self._eos.values()))
        passes = reg.counter("tcq_executor_eo_passes_total",
                             "Scheduler passes per EO", ("eo",),
                             collected=True)
        quanta = reg.counter("tcq_executor_du_quanta_total",
                             "Quanta run per DU (finished DUs fold "
                             "into du=retired)", ("eo", "du"),
                             collected=True)
        busy = reg.gauge("tcq_executor_du_busy_ratio",
                         "Fraction of a DU's quanta that made progress",
                         ("eo", "du"), collected=True)
        for root, eo in self._eos.items():
            passes.labels(str(root)).set_total(eo.passes)
            for du in eo.dispatch_units:
                quanta.labels(str(root), du.name).set_total(du.quanta)
                busy.labels(str(root), du.name).set(
                    du.busy_quanta / du.quanta if du.quanta else 0.0)
            if eo.retired_quanta:
                quanta.labels(str(root), "retired") \
                    .set_total(eo.retired_quanta)

    # -- introspection -------------------------------------------------------
    @property
    def execution_objects(self) -> List[ExecutionObject]:
        return list(self._eos.values())

    def stats(self) -> Dict[str, object]:
        return {
            "eos": len(self._eos),
            "dus": sum(len(eo.dispatch_units) for eo in self._eos.values()),
            "steps": self.steps,
            "per_eo": {
                str(root): {
                    "dus": [du.name for du in eo.dispatch_units],
                    "passes": eo.passes,
                }
                for root, eo in self._eos.items()
            },
        }
