"""The Schedulable protocol: the one contract every run loop speaks.

TelegraphCQ's executor story (Section 4.2.2) is about hosting many
heterogeneous units of work — Fjord modules, whole dataflows, Dispatch
Units, windowed-query states — under schedulers that provide
"adaptivity at minimal overhead".  Before this module existed the repo
had four hand-rolled loops with two progress vocabularies (a
:class:`StepResult` here, a bare ``bool`` there).  Everything now agrees
on one tiny surface:

* ``run_once(quantum)`` — do a bounded, non-preemptive quantum of work
  and return a :class:`StepResult`;
* ``finished`` — the unit has reached end-of-stream / quiescence and
  must never be scheduled again;
* ``name`` — stable identity for telemetry.

The protocol is structural: :class:`~repro.fjords.module.Module`,
:class:`~repro.fjords.fjord.Fjord`,
:class:`~repro.core.executor.DispatchUnit`, Juggle, and the server's
windowed-query states all satisfy it without inheriting from anything
in this package.
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


class Schedulable:
    """Abstract base documenting the protocol (satisfaction is
    structural — subclassing is optional)."""

    name: str = ""

    @property
    def finished(self) -> bool:
        raise NotImplementedError

    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        raise NotImplementedError


class FunctionUnit(Schedulable):
    """Adapt a bare step callable into a Schedulable.

    ``step(quantum)`` may return a :class:`StepResult` or a bool;
    ``is_finished`` is an optional zero-argument predicate.
    Used to fold legacy drive loops (Flux drain, cluster ticks) into the
    unified scheduler without rewriting their internals.
    """

    def __init__(self, name: str,
                 step: Callable[[Optional[int]], Any],
                 is_finished: Callable[[], bool] = lambda: False):
        self.name = name
        self._step = step
        self._is_finished = is_finished

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

    def __repr__(self) -> str:
        return f"FunctionUnit({self.name})"
