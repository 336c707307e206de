"""The Schedulable protocol: the one contract every run loop speaks.

TelegraphCQ's executor story (Section 4.2.2) is about hosting many
heterogeneous units of work — Fjord modules, whole dataflows, Dispatch
Units, eddies, windowed-query states — under schedulers that provide
"adaptivity at minimal overhead".  Before this module existed the repo
had four hand-rolled loops with two progress vocabularies (a
:class:`StepResult` here, a bare ``bool`` there).  Everything now agrees
on one tiny surface:

* ``run_once(quantum)`` — do a bounded, non-preemptive quantum of work
  and return a :class:`StepResult`;
* ``ready()`` — a *cheap* hint: could ``run_once`` plausibly make
  progress right now?  Schedulers use it for idle detection, starvation
  accounting, and (in the pressure-aware policy) to skip pointless
  quanta; round-robin ignores it so behaviour stays bit-compatible with
  the historical loops;
* ``finished`` — the unit has reached end-of-stream / quiescence and
  must never be scheduled again;
* ``name`` — stable identity for telemetry and policy state.

Optional extension, discovered by duck typing (helper below):

* ``pressure()`` — occupancy of the unit's *downstream* queues in
  [0, 1]; 1.0 means backpressured (the pressure-aware policy skips it).

The protocol is structural: :class:`~repro.fjords.module.Module`,
:class:`~repro.fjords.fjord.Fjord`,
:class:`~repro.core.executor.DispatchUnit`, eddies, Juggle, and the
server's windowed-query states all satisfy it without inheriting from
anything in this package.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class StepResult:
    """What a schedulable unit accomplished in one scheduling quantum.

    Truthiness equals :attr:`worked`, so legacy call sites that treated
    the old boolean step protocols as conditions keep working unchanged
    (``if fjord.step(): ...``).
    """

    __slots__ = ("worked", "finished")

    def __init__(self, worked: bool, finished: bool = False):
        self.worked = worked        # did the unit make progress?
        self.finished = finished    # has it emitted EOS / gone quiescent?

    IDLE: "StepResult"
    BUSY: "StepResult"
    DONE: "StepResult"

    def __bool__(self) -> bool:
        return self.worked

    def __repr__(self) -> str:
        state = "done" if self.finished else ("busy" if self.worked else "idle")
        return f"StepResult({state})"


StepResult.IDLE = StepResult(False)
StepResult.BUSY = StepResult(True)
StepResult.DONE = StepResult(True, finished=True)


def coerce_step_result(value: Any) -> StepResult:
    """Normalise a unit's return value to a :class:`StepResult`.

    Legacy step callables return a bare bool; ``None`` (a step that
    reports nothing) counts as idle.
    """
    if isinstance(value, StepResult):
        return value
    if value is None:
        return StepResult.IDLE
    return StepResult.BUSY if value else StepResult.IDLE


def unit_ready(unit: Any) -> bool:
    """The ``ready()`` hint, defaulting to True for units without one
    (a unit that cannot say must be polled)."""
    probe = getattr(unit, "ready", None)
    if probe is None:
        return True
    return bool(probe())


def unit_pressure(unit: Any) -> float:
    """The downstream-occupancy hint in [0, 1]; 0.0 when absent."""
    probe = getattr(unit, "pressure", None)
    if probe is None:
        return 0.0
    return float(probe())


class Schedulable:
    """Abstract base documenting the protocol (satisfaction is
    structural — subclassing is optional)."""

    name: str = ""

    @property
    def finished(self) -> bool:
        raise NotImplementedError

    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        raise NotImplementedError

    def ready(self) -> bool:
        return True


class FunctionUnit(Schedulable):
    """Adapt a bare step callable into a Schedulable.

    ``step(quantum)`` may return a :class:`StepResult` or a bool;
    ``is_finished`` / ``is_ready`` are optional zero-argument hints.
    Used to fold legacy drive loops (Flux drain, cluster ticks) into the
    unified scheduler without rewriting their internals.
    """

    def __init__(self, name: str,
                 step: Callable[[Optional[int]], Any],
                 is_finished: Callable[[], bool] = lambda: False,
                 is_ready: Optional[Callable[[], bool]] = None):
        self.name = name
        self._step = step
        self._is_finished = is_finished
        self._is_ready = is_ready

    @property
    def finished(self) -> bool:
        return bool(self._is_finished())

    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        if self.finished:
            return StepResult.DONE
        result = coerce_step_result(self._step(quantum))
        if self.finished and not result.finished:
            return StepResult(result.worked, finished=True)
        return result

    def ready(self) -> bool:
        if self._is_ready is None:
            return True
        return bool(self._is_ready())

    def __repr__(self) -> str:
        return f"FunctionUnit({self.name})"
