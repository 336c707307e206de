"""The Fjord: a dataflow graph of modules connected by queues, driven by
the unified scheduler core.

A Fjord owns the wiring (``connect``) and delegates the run loop
(``step`` / ``run`` / ``run_until_finished``) to a round-robin
:class:`repro.sched.scheduler.Scheduler` hosting its modules,
bit-compatible with the historical hand-rolled loop.

A Fjord is itself a :class:`~repro.sched.protocol.Schedulable`
(``run_once`` / ``finished``), so any
:class:`~repro.sched.scheduler.Scheduler` can host whole Fjords beside
other units — the single-plan analogue of the TelegraphCQ Execution
Object.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.errors import PlanError
from repro.fjords.module import Module, StepResult
from repro.fjords.queues import FjordQueue, PushQueue
from repro.sched.scheduler import Scheduler, SchedulerStall


class Fjord:
    """A runnable dataflow graph."""

    def __init__(self, name: str = "fjord", default_capacity: int = 0):
        self.name = name
        self.default_capacity = default_capacity
        self.modules: List[Module] = []
        self.queues: List[FjordQueue] = []
        self._names: Dict[str, Module] = {}
        self._scheduler: Optional[Scheduler] = None

    # -- construction ------------------------------------------------------
    def add(self, module: Module) -> Module:
        """Register a module; names must be unique within the Fjord."""
        if module.name in self._names:
            raise PlanError(f"duplicate module name {module.name!r}")
        self.modules.append(module)
        self._names[module.name] = module
        if self._scheduler is not None:
            self._scheduler.add(module)
        return module

    def connect(self, producer: Module, consumer: Module,
                out_port: int = 0, in_port: int = 0,
                queue_cls: Type[FjordQueue] = PushQueue,
                capacity: Optional[int] = None,
                overflow: str = "refuse") -> FjordQueue:
        """Wire ``producer.out_port`` to ``consumer.in_port`` with a fresh
        queue of the requested flavour and return the queue."""
        for m in (producer, consumer):
            if m not in self.modules:
                self.add(m)
        cap = self.default_capacity if capacity is None else capacity
        queue = queue_cls(capacity=cap, overflow=overflow,
                          name=f"{producer.name}->{consumer.name}")
        producer.bind_output(out_port, queue)
        consumer.bind_input(in_port, queue)
        self.queues.append(queue)
        return queue

    def module(self, name: str) -> Module:
        try:
            return self._names[name]
        except KeyError:
            raise PlanError(f"no module named {name!r} in {self.name}") from None

    def validate(self) -> None:
        """Check every port is bound before running."""
        for m in self.modules:
            m._require_wired()

    def check(self):
        """Static reachability over the wiring: every module must be
        reachable from an ingress and reach an egress (``TCQ104``).

        Returns a :class:`repro.analysis.report.DiagnosticReport`;
        opt-in (``run`` does not call it) because partially-wired
        graphs are legal while under construction."""
        from repro.analysis.plan_check import check_fjord
        from repro.analysis.report import DiagnosticReport
        return DiagnosticReport(check_fjord(self))

    # -- the scheduler -----------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        """The Fjord's scheduler over its modules (built on first use;
        modules registered later join it automatically)."""
        if self._scheduler is None:
            sched = Scheduler(name=f"fjord:{self.name}", telemetry=False)
            for m in self.modules:
                sched.add(m)
            self._scheduler = sched
        return self._scheduler

    # -- execution -----------------------------------------------------
    def step(self, batch: Optional[int] = None) -> StepResult:
        """One scheduling pass over the unfinished modules.

        Returns a :class:`StepResult` (truthy iff any module made
        progress, ``finished`` once EOS has fully propagated).
        """
        return self.scheduler.pass_once(batch)

    #: Schedulable alias: a Fjord can be hosted by another scheduler.
    run_once = step

    @property
    def finished(self) -> bool:
        return all(m.finished for m in self.modules)

    def run(self, max_steps: int = 1_000_000,
            batch: Optional[int] = None) -> int:
        """Run until quiescent (no module makes progress) or until
        ``max_steps`` scheduling passes have elapsed.

        Returns the number of passes taken.  A dataflow with live push
        sources never quiesces; cap it with ``max_steps`` or stop the
        sources first.
        """
        self.validate()
        return self.scheduler.run_until_quiescent(max_steps, batch)

    def run_until_finished(self, max_steps: int = 1_000_000,
                           batch: Optional[int] = None) -> int:
        """Run until *every* module reports finished (EOS fully
        propagated), raising :class:`PlanError` on stall."""
        self.validate()
        try:
            return self.scheduler.run_until_finished(max_steps, batch)
        except SchedulerStall:
            stuck = [m.name for m in self.modules if not m.finished]
            raise PlanError(
                f"{self.name}: modules {stuck} did not finish within "
                f"{max_steps} passes") from None

    # -- introspection ---------------------------------------------------
    def queue_stats(self) -> Dict[str, dict]:
        return {q.name: q.stats.snapshot() for q in self.queues}

    def __repr__(self) -> str:
        return (f"Fjord({self.name}, {len(self.modules)} modules, "
                f"{len(self.queues)} queues)")
