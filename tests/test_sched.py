"""Tests for repro.sched: the unified scheduler core — the Schedulable
protocol, the four shipped policies, the quiescence/stall protocol, and
a hypothesis fairness property (no ready unit starves beyond a
policy-derived bound)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.sched import (BusyFirstPolicy, DeficitRoundRobinPolicy,
                         FunctionUnit, POLICIES, PressureAwarePolicy,
                         QuiescenceDetector, RoundRobinPolicy, Scheduler,
                         SchedulerStall, StepResult, coerce_step_result,
                         drive, make_policy)


class Worker:
    """A fully instrumented schedulable test double."""

    def __init__(self, name, work=3, ready=True, pressure=0.0):
        self.name = name
        self.work_left = work
        self._ready = ready
        self._pressure = pressure
        self.runs = 0
        self.quanta_seen = []

    @property
    def finished(self):
        return self.work_left <= 0

    def ready(self):
        return self._ready and not self.finished

    def pressure(self):
        return self._pressure

    def run_once(self, quantum=None):
        self.runs += 1
        self.quanta_seen.append(quantum)
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

    def test_quiescence_detector(self):
        det = QuiescenceDetector(idle_limit=2)
        assert not det.observe(StepResult.BUSY)
        assert not det.observe(StepResult.IDLE)
        assert det.observe(StepResult.IDLE)
        det.reset()
        assert not det.observe(StepResult.IDLE)

    def test_detector_rejects_bad_limit(self):
        with pytest.raises(ExecutionError):
            QuiescenceDetector(idle_limit=0)

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

    def test_remove_clears_policy_state(self):
        policy = DeficitRoundRobinPolicy()
        sched = Scheduler(policy=policy, telemetry=False)
        sched.add(Worker("a", work=100), weight=0.5)
        sched.pass_once()
        assert "a" in policy._credit
        sched.remove("a")
        assert "a" not in policy._credit
        assert "a" not in sched

    def test_unknown_policy(self):
        with pytest.raises(ExecutionError):
            make_policy("lottery")

    def test_stats_shape(self):
        sched = Scheduler(telemetry=False)
        sched.add(Worker("a", work=1))
        sched.run_until_finished()
        stats = sched.stats()
        assert stats["policy"] == "round_robin"
        assert stats["per_unit"]["a"]["runs"] == 1
        assert stats["decisions"]["run"] == 1


class TestPolicies:
    def test_round_robin_ignores_ready(self):
        """Bit-compat: round_robin polls idle units exactly as the
        historical loops did."""
        sched = Scheduler(policy="round_robin", telemetry=False)
        lazy = Worker("lazy", work=5, ready=False)
        sched.add(lazy)
        sched.pass_once()
        assert lazy.runs == 1

    def test_busy_first_orders_by_last_progress(self):
        order = []

        def unit(name, works):
            def step(_q):
                order.append(name)
                return works
            return FunctionUnit(name, step)

        sched = Scheduler(policy="busy_first", telemetry=False)
        sched.add(unit("idler", False))
        sched.add(unit("worker", True))
        sched.pass_once()
        assert order == ["idler", "worker"]   # never-run counts as busy
        order.clear()
        sched.pass_once()
        assert order == ["worker", "idler"]

    def test_drr_half_weight_runs_every_other_pass(self):
        sched = Scheduler(policy="deficit_round_robin", telemetry=False)
        full = Worker("full", work=100)
        half = Worker("half", work=100)
        sched.add(full, weight=1.0)
        sched.add(half, weight=0.5)
        for _ in range(8):
            sched.pass_once()
        assert full.runs == 8
        assert half.runs == 4

    def test_drr_heavy_weight_boosts_quantum(self):
        sched = Scheduler(policy="deficit_round_robin", telemetry=False)
        heavy = Worker("heavy", work=100)
        sched.add(heavy, weight=2.0)
        sched.pass_once(quantum=10)
        assert heavy.quanta_seen == [20]

    def test_drr_idle_forfeits_credit(self):
        policy = DeficitRoundRobinPolicy()
        sched = Scheduler(policy=policy, telemetry=False)
        sched.add(FunctionUnit("idler", lambda q: False), weight=0.5)
        sched.pass_once()            # credit 0.5, not selected
        sched.pass_once()            # credit 1.0 -> runs, idles, zeroed
        assert policy._credit["idler"] == 0.0

    def test_pressure_aware_skips_not_ready(self):
        sched = Scheduler(policy="pressure_aware", telemetry=False)
        lazy = Worker("lazy", work=5, ready=False)
        eager = Worker("eager", work=5)
        sched.add(lazy)
        sched.add(eager)
        sched.pass_once()
        assert eager.runs == 1 and lazy.runs == 0
        assert sched.decisions["skip_not_ready"] == 1

    def test_pressure_aware_skips_backpressured(self):
        sched = Scheduler(policy="pressure_aware", telemetry=False)
        blocked = Worker("blocked", work=5, pressure=1.0)
        sched.add(blocked)
        sched.pass_once()
        assert blocked.runs == 0
        assert sched.decisions["skip_backpressure"] == 1

    def test_pressure_aware_starvation_guard(self):
        policy = PressureAwarePolicy(starvation_limit=3)
        sched = Scheduler(policy=policy, telemetry=False)
        lazy = Worker("lazy", work=100, ready=False)
        sched.add(lazy)
        for _ in range(10):
            sched.pass_once()
        # Skipped at most starvation_limit passes, then forced; the
        # idle forced run backs the personal limit off to 2x base.
        assert lazy.runs >= 2
        assert sched.worst_starvation() <= 2 * 3
        assert sched.decisions["starvation_override"] >= 2

    def test_pressure_aware_guard_backoff_and_reset(self):
        """An idle forced run doubles the unit's guard limit (capped);
        the first productive run snaps it back to the base."""
        policy = PressureAwarePolicy(starvation_limit=2)
        sched = Scheduler(policy=policy, telemetry=False)

        class Quiet:
            name = "quiet"
            finished = False

            def __init__(self):
                self.runs = 0
                self.has_work = False

            def ready(self):
                return False        # hint always says no

            def run_once(self, quantum=None):
                self.runs += 1
                if self.has_work:
                    self.has_work = False
                    return StepResult.BUSY
                return StepResult.IDLE

        quiet = Quiet()
        sched.add(quiet)
        for _ in range(3):
            sched.pass_once()
        assert policy._guard_limit["quiet"] == 4       # 2 -> 4 after idle
        for _ in range(6):
            sched.pass_once()
        assert policy._guard_limit["quiet"] == 8
        quiet.has_work = True
        for _ in range(20):
            sched.pass_once()
            if "quiet" not in policy._guard_limit:
                break
        assert "quiet" not in policy._guard_limit      # reset on work
        assert policy._guard_limit.get("quiet",
                                       policy.starvation_limit) == 2

    def test_pressure_aware_override_cap_rotates(self):
        """The starvation guard trickles through a large quiet
        population oldest-first instead of forcing everyone in one
        synchronized pass."""
        policy = PressureAwarePolicy(starvation_limit=3,
                                     max_overrides_per_pass=2)
        sched = Scheduler(policy=policy, telemetry=False)
        units = [Worker(f"quiet{i}", work=100, ready=False)
                 for i in range(6)]
        for u in units:
            sched.add(u)
        per_pass = []
        for _ in range(12):
            before = sched.decisions.get("starvation_override", 0)
            sched.pass_once()
            per_pass.append(
                sched.decisions.get("starvation_override", 0) - before)
        assert max(per_pass) <= 2
        assert all(u.runs >= 2 for u in units)     # rotation reaches all
        # Graceful degradation: the backed-off limit (2x base after one
        # idle force) plus the rotation delay.
        assert sched.worst_starvation() <= 2 * 3

    def test_pressure_aware_qos_callable_throttles(self):
        policy = PressureAwarePolicy(qos=lambda cls: 0.5
                                     if cls == "bulk" else 0.0)
        sched = Scheduler(policy=policy, telemetry=False)
        bulk = Worker("bulk", work=100)
        vip = Worker("vip", work=100)
        sched.add(bulk, query_class="bulk")
        sched.add(vip, query_class="vip")
        for _ in range(8):
            sched.pass_once()
        assert vip.runs == 8
        assert bulk.runs == 4        # ratio 0.5 drops every second quantum
        assert sched.decisions["skip_qos_throttle"] == 4

    def test_pressure_aware_load_shedder_duck(self):
        class Shedder:
            drop_rate = 1.0
            preferences = {"vip": 1.0}

        policy = PressureAwarePolicy(starvation_limit=4, qos=Shedder())
        sched = Scheduler(policy=policy, telemetry=False)
        bulk = Worker("bulk", work=100)
        vip = Worker("vip", work=100)
        sched.add(bulk, query_class="bulk")
        sched.add(vip, query_class="vip")
        for _ in range(8):
            sched.pass_once()
        assert vip.runs == 8         # preferred classes are never throttled
        assert bulk.runs <= 2        # only the starvation guard runs it

    def test_policy_registry(self):
        assert POLICIES == ("round_robin", "busy_first",
                            "deficit_round_robin", "pressure_aware")
        for name in POLICIES:
            assert make_policy(name).name == name
        rr = RoundRobinPolicy()
        assert make_policy(rr) is rr


WEIGHTS = (0.25, 0.5, 1.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    units=st.lists(
        st.tuples(st.sampled_from(WEIGHTS),
                  st.lists(st.booleans(), min_size=30, max_size=30)),
        min_size=1, max_size=5),
)
def test_no_ready_unit_starves(policy, units):
    """Fairness property: under every shipped policy, a live unit that
    always reports ready work runs at least every K passes, where K is
    the policy's own bound — the DRR weight period or the pressure-aware
    starvation limit, whichever is larger."""
    sched = Scheduler(policy=policy, telemetry=False)
    for i, (weight, pattern) in enumerate(units):
        it = iter(pattern)
        sched.add(FunctionUnit(f"u{i}",
                               lambda q, it=it: next(it, False)),
                  weight=weight, query_class=f"c{i}")
    for _ in range(30):
        sched.pass_once()
    min_weight = min(w for w, _p in units)
    bound = max(8, math.ceil(1.0 / min_weight))
    assert sched.worst_starvation() <= bound
    for age in sched.starvation_ages().values():
        assert age <= bound
