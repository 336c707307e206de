"""Tests for repro.sched: the unified scheduler core — the Schedulable
protocol, round-robin passes, the quiescence/stall protocol, and a
hypothesis fairness property (every live unit runs every pass)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sched.protocol import FunctionUnit, StepResult, coerce_step_result
from repro.sched.scheduler import Scheduler, SchedulerStall, drive


class Worker:
    """A fully instrumented schedulable test double."""

    def __init__(self, name, work=3):
        self.name = name
        self.work_left = work
        self.runs = 0

    @property
    def finished(self):
        return self.work_left <= 0

    def run_once(self, quantum=None):
        self.runs += 1
        if self.finished:
            return StepResult.DONE
        self.work_left -= 1
        return StepResult.DONE if self.finished else StepResult.BUSY


class TestStepProtocol:
    def test_coerce(self):
        assert coerce_step_result(True) is StepResult.BUSY
        assert coerce_step_result(False) is StepResult.IDLE
        assert coerce_step_result(None) is StepResult.IDLE
        busy = StepResult(True)
        assert coerce_step_result(busy) is busy

    def test_truthiness_is_worked(self):
        assert StepResult.BUSY and StepResult.DONE
        assert not StepResult.IDLE
        assert not StepResult(False, finished=True)

    def test_function_unit_forces_finished(self):
        state = {"left": 1}

        def step(_q):
            state["left"] -= 1
            return True

        unit = FunctionUnit("u", step,
                            is_finished=lambda: state["left"] <= 0)
        result = unit.run_once()
        assert result.worked and result.finished
        assert unit.run_once() is StepResult.DONE   # no step after finish
        assert state["left"] == 0

    def test_drive_counts_final_idle_pass(self):
        state = {"left": 3}

        def step():
            if state["left"]:
                state["left"] -= 1
                return True
            return False

        assert drive(step) == 4      # 3 working passes + the idle one


class TestScheduler:
    def test_run_until_finished(self):
        sched = Scheduler(telemetry=False)
        a, b = Worker("a", work=2), Worker("b", work=5)
        sched.add(a)
        sched.add(b)
        passes = sched.run_until_finished()
        assert passes == 5
        assert a.finished and b.finished
        assert a.runs == 2           # finished units are never re-run

    def test_run_until_quiescent_counts_idle_pass(self):
        sched = Scheduler(telemetry=False)
        sched.add(FunctionUnit("never-done", lambda q: False))
        assert sched.run_until_quiescent() == 1
        state = {"left": 2}

        def step(_q):
            if state["left"]:
                state["left"] -= 1
                return True
            return False

        sched2 = Scheduler(telemetry=False)
        sched2.add(FunctionUnit("worker", step))
        assert sched2.run_until_quiescent() == 3

    def test_stall_raises_with_stuck_names(self):
        sched = Scheduler(name="test", telemetry=False)
        sched.add(FunctionUnit("stuck", lambda q: True))
        with pytest.raises(SchedulerStall) as exc:
            sched.run_until_finished(max_passes=7)
        assert exc.value.stuck == ["stuck"]
        assert "did not finish within 7 passes" in str(exc.value)

    def test_duplicate_names_rejected(self):
        sched = Scheduler(telemetry=False)
        sched.add(Worker("a"))
        with pytest.raises(ExecutionError):
            sched.add(Worker("a"))

    def test_remove(self):
        sched = Scheduler(telemetry=False)
        sched.add(Worker("a"))
        sched.remove("a")
        assert "a" not in sched
        assert len(sched) == 0

    def test_stats_shape(self):
        sched = Scheduler(name="s", telemetry=False)
        sched.add(Worker("a", work=1))
        sched.run_until_finished()
        assert sched.stats() == {"name": "s", "passes": 1, "units": 1,
                                 "live_units": 0}

    def test_round_robin_runs_each_live_unit_once_per_pass(self):
        """Every live unit runs exactly once per pass, in registration
        order, and a finished unit is not run again."""
        order = []

        def unit(name, work):
            left = {"n": work}

            def step(_q):
                order.append(name)
                left["n"] -= 1
                return False        # idle units are polled all the same
            return FunctionUnit(name, step,
                                is_finished=lambda: left["n"] <= 0)

        sched = Scheduler(telemetry=False)
        for name, work in (("c", 3), ("a", 1), ("b", 2)):
            sched.add(unit(name, work))
        for _ in range(4):
            sched.pass_once()
        assert order == ["c", "a", "b", "c", "b", "c"]


@settings(max_examples=60, deadline=None)
@given(units=st.lists(st.lists(st.booleans(), min_size=30, max_size=30),
                      min_size=1, max_size=5))
def test_no_ready_unit_starves(units):
    """Fairness property: under round-robin a live unit runs on every
    pass, whether or not it made progress on the last one."""
    sched = Scheduler(telemetry=False)
    runs = [0] * len(units)
    for i, pattern in enumerate(units):
        it = iter(pattern)

        def step(_q, i=i, it=it):
            runs[i] += 1
            return next(it, False)
        sched.add(FunctionUnit(f"u{i}", step))
    for passes in range(1, 31):
        sched.pass_once()
        assert runs == [passes] * len(units)
