"""repro.sched — the unified, pluggable scheduler core.

One :class:`Schedulable` protocol (``run_once(quantum) -> StepResult``
plus a cheap ``ready()`` hint), one :class:`Scheduler` with pluggable
policies (round-robin, busy-first, deficit-round-robin, pressure-aware)
and one quiescence/stall protocol.  Every run loop in the system —
Fjords, Execution Objects, the Executor, the server facade, Flux drains
— routes through here.
"""

from repro.sched.policy import (BusyFirstPolicy, DeficitRoundRobinPolicy,
                                POLICIES, PressureAwarePolicy,
                                RoundRobinPolicy, SchedulingPolicy,
                                make_policy)
from repro.sched.protocol import (FunctionUnit, Schedulable, StepResult,
                                  coerce_step_result, unit_pressure,
                                  unit_ready)
from repro.sched.scheduler import (QuiescenceDetector, Scheduler,
                                   SchedulerStall, UnitRecord, drive)

__all__ = [
    "BusyFirstPolicy", "DeficitRoundRobinPolicy", "FunctionUnit", "POLICIES",
    "PressureAwarePolicy", "QuiescenceDetector", "RoundRobinPolicy",
    "Schedulable", "Scheduler", "SchedulerStall", "SchedulingPolicy",
    "StepResult", "UnitRecord", "coerce_step_result", "drive",
    "make_policy", "unit_pressure", "unit_ready",
]
