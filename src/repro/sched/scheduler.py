"""The unified scheduler core (Section 4.2.2's executor, generalised).

One :class:`Scheduler` replaces the four hand-rolled run loops the repo
used to carry (``Fjord.step``/``run``, ``ExecutionObject``/``Executor``
passes, ``TelegraphCQServer.step``, Flux drain ticks).  It hosts any
number of :class:`~repro.sched.protocol.Schedulable` units under a
pluggable :class:`~repro.sched.policy.SchedulingPolicy`, with:

* one progress vocabulary — every pass returns a
  :class:`~repro.sched.protocol.StepResult`;
* one quiescence/stall protocol — :class:`QuiescenceDetector` decides
  "no progress" and "will never finish" the same way everywhere;
* scheduler telemetry — per-policy decision counts, ready-set
  occupancy and starvation ages, published
  through the process registry as ``tcq_sched_*`` series.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ExecutionError
from repro.monitor.telemetry import get_registry
import repro.monitor.tracing as tracing
from repro.sched.policy import SchedulingPolicy, make_policy
from repro.sched.protocol import (StepResult, coerce_step_result,
                                  unit_pressure, unit_ready)

_SCHED_IDS = itertools.count()


class SchedulerStall(ExecutionError):
    """``run_until_finished`` exhausted its pass budget with live units.

    Carries the names of the stuck units so callers can build their own
    diagnostics (Fjord re-raises as a PlanError naming its modules).
    """

    def __init__(self, scheduler: str, stuck: List[str], passes: int):
        self.scheduler = scheduler
        self.stuck = list(stuck)
        self.passes = passes
        super().__init__(
            f"{scheduler}: units {self.stuck} did not finish within "
            f"{passes} passes")


class QuiescenceDetector:
    """The shared stall/idle detector.

    A scheduling pass that reports no progress while every pollable
    source is exhausted is *quiescent*; ``idle_limit`` consecutive such
    passes stop a drive loop.  The default of 1 is bit-compatible with
    every historical loop (they all stopped on the first idle pass).
    """

    def __init__(self, idle_limit: int = 1):
        if idle_limit < 1:
            raise ExecutionError("idle_limit must be >= 1")
        self.idle_limit = idle_limit
        self.idle_passes = 0

    def observe(self, result: StepResult) -> bool:
        """Feed one pass result; returns True once quiescent."""
        if result.worked:
            self.idle_passes = 0
            return False
        self.idle_passes += 1
        return self.idle_passes >= self.idle_limit

    def reset(self) -> None:
        self.idle_passes = 0


class UnitRecord:
    """The scheduler's per-unit bookkeeping, visible to policies."""

    __slots__ = ("unit", "name", "weight", "query_class", "last_worked",
                 "last_run_pass", "runs", "busy_runs", "worst_starvation")

    def __init__(self, unit: Any, name: str, weight: float,
                 query_class: Any, added_at_pass: int):
        self.unit = unit
        self.name = name
        self.weight = weight
        self.query_class = query_class
        #: never-run units count as "worked" (matches the historical
        #: busy_first default) so fresh units are not deprioritised.
        self.last_worked = True
        self.last_run_pass = added_at_pass
        self.runs = 0
        self.busy_runs = 0
        self.worst_starvation = 0

    def is_ready(self) -> bool:
        return unit_ready(self.unit)

    def current_pressure(self) -> float:
        return unit_pressure(self.unit)

    def __repr__(self) -> str:
        return f"UnitRecord({self.name}, weight={self.weight})"


class Scheduler:
    """Policy-driven cooperative scheduler over Schedulable units."""

    def __init__(self, policy: Any = "round_robin",
                 name: str = "",
                 telemetry: bool = True):
        self.policy: SchedulingPolicy = make_policy(policy)
        self.name = name or f"sched#{next(_SCHED_IDS)}"
        self._records: List[UnitRecord] = []
        self._by_name: Dict[str, UnitRecord] = {}
        self.passes = 0
        self.decisions: Dict[str, int] = {}
        if telemetry:
            self._telemetry = get_registry()
            self._telemetry.register_collector(self._publish_telemetry)
        else:
            self._telemetry = None

    # -- membership ---------------------------------------------------------
    def add(self, unit: Any, weight: float = 1.0,
            query_class: Any = None) -> UnitRecord:
        name = getattr(unit, "name", "") or f"unit{len(self._records)}"
        if name in self._by_name:
            raise ExecutionError(
                f"{self.name}: duplicate schedulable name {name!r}")
        if weight <= 0:
            raise ExecutionError("unit weight must be > 0")
        record = UnitRecord(unit, name, weight, query_class, self.passes)
        self._records.append(record)
        self._by_name[name] = record
        return record

    def remove(self, name: str) -> None:
        record = self._by_name.pop(name, None)
        if record is None:
            return
        self._records.remove(record)
        forget = getattr(self.policy, "forget", None)
        if forget is not None:
            forget(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._records)

    @property
    def units(self) -> List[Any]:
        return [rec.unit for rec in self._records]

    @property
    def live_units(self) -> int:
        return sum(1 for rec in self._records if not rec.unit.finished)

    def record(self, name: str) -> UnitRecord:
        try:
            return self._by_name[name]
        except KeyError:
            raise ExecutionError(
                f"{self.name}: no schedulable named {name!r}") from None

    # -- the pass -----------------------------------------------------------
    def count_decision(self, kind: str) -> None:
        self.decisions[kind] = self.decisions.get(kind, 0) + 1

    def pass_once(self, quantum: Optional[int] = None) -> StepResult:
        """One scheduling pass: the policy selects and orders the live
        units, each selected unit gets one quantum.  Returns the merged
        :class:`StepResult` (worked = any progressed, finished = every
        registered unit is finished)."""
        self.passes += 1
        tracer = tracing.TRACER
        if tracer.active:
            # Stamp hops recorded during this pass with "sched:pass" so
            # traces attribute each hop to the pass that drove it.
            tracer.current_pass = f"{self.name}:{self.passes}"
        active = [rec for rec in self._records if not rec.unit.finished]
        worked = False
        if active:
            if self._telemetry is not None:
                with self._telemetry.trace("sched_pass",
                                           scheduler=self.name):
                    for rec in self.policy.select(active, self):
                        result = self._run_unit(rec, quantum)
                        worked = result.worked or worked
            else:
                for rec in self.policy.select(active, self):
                    result = self._run_unit(rec, quantum)
                    worked = result.worked or worked
        finished = all(rec.unit.finished for rec in self._records)
        if finished:
            return StepResult(worked, finished=True)
        return StepResult.BUSY if worked else StepResult.IDLE

    def _run_unit(self, rec: UnitRecord, quantum: Optional[int]) \
            -> StepResult:
        q = self.policy.quantum_for(rec, quantum, self)
        starvation = self.passes - rec.last_run_pass - 1
        if starvation > rec.worst_starvation:
            rec.worst_starvation = starvation
        result = coerce_step_result(rec.unit.run_once(q))
        rec.last_worked = result.worked
        rec.last_run_pass = self.passes
        rec.runs += 1
        if result.worked:
            rec.busy_runs += 1
        self.count_decision("run")
        self.policy.on_result(rec, result, self)
        return result

    # -- drive loops --------------------------------------------------------
    def run_until_quiescent(self, max_passes: int = 1_000_000,
                            quantum: Optional[int] = None,
                            idle_limit: int = 1) -> int:
        """Pass until quiescent (or ``max_passes``); returns the number
        of passes taken, counting the final idle pass — the historical
        contract of every loop this replaces."""
        detector = QuiescenceDetector(idle_limit)
        taken = 0
        while taken < max_passes:
            taken += 1
            if detector.observe(self.pass_once(quantum)):
                break
        return taken

    def run_until_finished(self, max_passes: int = 1_000_000,
                           quantum: Optional[int] = None) -> int:
        """Pass until every unit reports finished; raises
        :class:`SchedulerStall` naming the stuck units otherwise."""
        taken = 0
        while taken < max_passes:
            taken += 1
            if self.pass_once(quantum).finished:
                return taken
        stuck = [rec.name for rec in self._records if not rec.unit.finished]
        raise SchedulerStall(self.name, stuck, max_passes)

    # -- introspection ------------------------------------------------------
    def starvation_ages(self) -> Dict[str, int]:
        """Passes since each live, unfinished unit last ran."""
        return {rec.name: self.passes - rec.last_run_pass
                for rec in self._records if not rec.unit.finished}

    def worst_starvation(self) -> int:
        """The worst gap (in passes) any unit has ever waited between
        consecutive runs — the starvation tail the benchmark reports."""
        current = self.starvation_ages().values()
        historical = (rec.worst_starvation for rec in self._records)
        return max(itertools.chain(historical, current), default=0)

    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "policy": self.policy.name,
            "passes": self.passes,
            "units": len(self._records),
            "live_units": self.live_units,
            "decisions": dict(self.decisions),
            "worst_starvation": self.worst_starvation(),
            "per_unit": {
                rec.name: {
                    "runs": rec.runs,
                    "busy_runs": rec.busy_runs,
                    "weight": rec.weight,
                    "worst_starvation": rec.worst_starvation,
                }
                for rec in self._records
            },
        }

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        if reg is None:
            return
        label = (self.name, self.policy.name)
        reg.counter("tcq_sched_passes_total",
                    "Scheduling passes per scheduler",
                    ("sched", "policy"), collected=True) \
            .labels(*label).set_total(self.passes)
        decisions = reg.counter(
            "tcq_sched_decisions_total",
            "Per-policy scheduling decisions (runs, skips, overrides)",
            ("sched", "policy", "decision"), collected=True)
        for kind, count in self.decisions.items():
            decisions.labels(self.name, self.policy.name, kind) \
                .set_total(count)
        live = [rec for rec in self._records if not rec.unit.finished]
        reg.gauge("tcq_sched_units", "Registered schedulable units",
                  ("sched",), collected=True).labels(self.name) \
            .set(len(self._records))
        reg.gauge("tcq_sched_ready_units",
                  "Ready-set occupancy: live units reporting ready work",
                  ("sched",), collected=True).labels(self.name) \
            .set(sum(1 for rec in live if rec.is_ready()))
        ages = self.starvation_ages()
        reg.gauge("tcq_sched_starvation_age_max",
                  "Oldest live unit's passes-since-last-run",
                  ("sched",), collected=True).labels(self.name) \
            .set(max(ages.values(), default=0))
        reg.gauge("tcq_sched_starvation_tail",
                  "Worst run-to-run gap any unit has experienced",
                  ("sched",), collected=True).labels(self.name) \
            .set(self.worst_starvation())

    def __repr__(self) -> str:
        return (f"Scheduler({self.name}, policy={self.policy.name}, "
                f"{len(self._records)} units)")


def drive(step: Any, max_passes: int = 1_000_000,
          idle_limit: int = 1) -> int:
    """Drive a bare step callable to quiescence with the shared
    detector; returns passes taken (counting the final idle pass).

    The escape hatch for components that keep their own step function
    but should share the one idle protocol (the server facade, legacy
    benchmarks).
    """
    detector = QuiescenceDetector(idle_limit)
    taken = 0
    while taken < max_passes:
        taken += 1
        if detector.observe(coerce_step_result(step())):
            break
    return taken
