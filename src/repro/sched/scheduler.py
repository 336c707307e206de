"""The unified scheduler core (Section 4.2.2's executor, generalised).

One :class:`Scheduler` replaces the four hand-rolled run loops the repo
used to carry (``Fjord.step``/``run``, ``ExecutionObject``/``Executor``
passes, ``TelegraphCQServer.step``, Flux drain ticks).  It hosts any
number of :class:`~repro.sched.protocol.Schedulable` units and runs them
round-robin: every live unit gets one quantum per pass, in registration
order.  Every pass returns a :class:`~repro.sched.protocol.StepResult`,
and every drive loop stops on the first pass that makes no progress.
A scheduler built with ``telemetry=True`` publishes ``tcq_sched_*``
series through the process registry.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.errors import ExecutionError
from repro.monitor.telemetry import get_registry
import repro.monitor.tracing as tracing
from repro.sched.protocol import StepResult

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


class Scheduler:
    """Round-robin cooperative scheduler over Schedulable units."""

    def __init__(self, name: str = "", telemetry: bool = True):
        self.name = name or f"sched#{next(_SCHED_IDS)}"
        #: name -> unit, in registration order (the run order).
        self._units: Dict[str, Any] = {}
        self.passes = 0
        if telemetry:
            self._telemetry = get_registry()
            self._telemetry.register_collector(self._publish_telemetry)

    # -- membership ---------------------------------------------------------
    def add(self, unit: Any) -> None:
        name = getattr(unit, "name", "") or f"unit{len(self._units)}"
        if name in self._units:
            raise ExecutionError(
                f"{self.name}: duplicate schedulable name {name!r}")
        self._units[name] = unit

    def remove(self, name: str) -> None:
        self._units.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._units

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self) -> List[Any]:
        return list(self._units.values())

    @property
    def live_units(self) -> int:
        return sum(1 for unit in self._units.values() if not unit.finished)

    # -- the pass -----------------------------------------------------------
    def pass_once(self, quantum: Optional[int] = None) -> StepResult:
        """One scheduling pass: every live unit runs one quantum, in
        registration order.  Returns the merged :class:`StepResult`
        (worked = any progressed, finished = every registered unit is
        finished)."""
        self.passes += 1
        tracer = tracing.TRACER
        if tracer.active:
            # Stamp hops recorded during this pass with "sched:pass" so
            # traces attribute each hop to the pass that drove it.
            tracer.current_pass = f"{self.name}:{self.passes}"
        worked = False
        for unit in [u for u in self._units.values() if not u.finished]:
            # StepResult, bool and None all test true iff the unit worked.
            if unit.run_once(quantum):
                worked = True
        if all(unit.finished for unit in self._units.values()):
            return StepResult(worked, finished=True)
        return StepResult.BUSY if worked else StepResult.IDLE

    # -- drive loops --------------------------------------------------------
    def run_until_quiescent(self, max_passes: int = 1_000_000,
                            quantum: Optional[int] = None) -> int:
        """Pass until a pass makes no progress (or ``max_passes``);
        returns the number of passes taken, counting the final idle
        pass — the historical contract of every loop this replaces."""
        return drive(lambda: self.pass_once(quantum), max_passes)

    def run_until_finished(self, max_passes: int = 1_000_000,
                           quantum: Optional[int] = None) -> int:
        """Pass until every unit reports finished; raises
        :class:`SchedulerStall` naming the stuck units otherwise."""
        taken = 0
        while taken < max_passes:
            taken += 1
            if self.pass_once(quantum).finished:
                return taken
        stuck = [name for name, unit in self._units.items()
                 if not unit.finished]
        raise SchedulerStall(self.name, stuck, max_passes)

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passes": self.passes,
            "units": len(self._units),
            "live_units": self.live_units,
        }

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        reg.counter("tcq_sched_passes_total",
                    "Scheduling passes per scheduler",
                    ("sched",), collected=True) \
            .labels(self.name).set_total(self.passes)
        reg.gauge("tcq_sched_units", "Registered schedulable units",
                  ("sched",), collected=True).labels(self.name) \
            .set(len(self._units))

    def __repr__(self) -> str:
        return f"Scheduler({self.name}, {len(self._units)} units)"


def drive(step: Any, max_passes: int = 1_000_000) -> int:
    """Call ``step`` until it reports no progress (or ``max_passes``);
    returns passes taken, counting the final idle pass.

    The loop for components that keep their own step function (the
    executor, the server facade, legacy benchmarks).
    """
    taken = 0
    while taken < max_passes:
        taken += 1
        if not step():
            break
    return taken
