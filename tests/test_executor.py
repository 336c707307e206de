"""Tests for the Executor: EOs, DUs, footprint classes, dynamic plan
fold-in, and EO merging when a query bridges classes."""

import gc
import weakref

import pytest

from repro.client import connect
from repro.core.executor import (DispatchUnit, ExecutionObject, Executor,
                                 FootprintClasses)
from repro.errors import ExecutionError


def counting_du(name, work=3, mode=DispatchUnit.MODE_SHARED_CQ):
    """A DU that reports progress ``work`` times, then finishes."""
    state = {"left": work}

    def step(batch):
        if state["left"] <= 0:
            return False
        state["left"] -= 1
        return True

    return DispatchUnit(name, mode, step,
                        is_finished=lambda: state["left"] <= 0), state


class TestDispatchUnit:
    def test_run_counts_quanta(self):
        du, _ = counting_du("x", work=2)
        assert du.run_once()
        assert du.run_once()
        assert not du.run_once()
        assert du.quanta == 3
        assert du.busy_quanta == 2

    def test_modes_exposed(self):
        assert DispatchUnit.MODE_TRADITIONAL == 1
        assert DispatchUnit.MODE_SINGLE_EDDY == 2
        assert DispatchUnit.MODE_SHARED_CQ == 3


class TestExecutionObject:
    def test_round_robin_runs_all(self):
        eo = ExecutionObject(0)
        du1, s1 = counting_du("a", work=2)
        du2, s2 = counting_du("b", work=2)
        eo.add(du1)
        eo.add(du2)
        eo.step()
        assert s1["left"] == 1 and s2["left"] == 1

    def test_finished_dus_skipped(self):
        eo = ExecutionObject(0)
        du, state = counting_du("a", work=1)
        eo.add(du)
        eo.step()
        quanta = du.quanta
        eo.step()
        assert du.quanta == quanta       # not re-run after finishing
        assert eo.live_units == 0

    def test_remove(self):
        eo = ExecutionObject(0)
        du, _ = counting_du("a")
        eo.add(du)
        eo.remove("a")
        assert not eo.dispatch_units


class TestFootprintClasses:
    def test_disjoint_footprints_distinct(self):
        fc = FootprintClasses()
        a = fc.class_of(["s1"])
        b = fc.class_of(["s2"])
        assert a != b

    def test_overlap_merges(self):
        fc = FootprintClasses()
        fc.class_of(["s1"])
        fc.class_of(["s2"])
        merged = fc.class_of(["s1", "s2"])
        assert fc.class_of(["s1"]) == fc.class_of(["s2"]) == merged

    def test_transitive_merge(self):
        fc = FootprintClasses()
        fc.class_of(["a", "b"])
        fc.class_of(["b", "c"])
        assert fc.class_of(["a"]) == fc.class_of(["c"])

    def test_empty_footprint_rejected(self):
        with pytest.raises(ExecutionError):
            FootprintClasses().class_of([])

    def test_peek_does_not_union(self):
        fc = FootprintClasses()
        fc.class_of(["a"])
        fc.class_of(["b"])
        assert len(fc.peek(["a", "b"])) == 2
        # still distinct afterwards
        assert fc.class_of(["a"]) != fc.class_of(["b"])

    def test_find_survives_deep_parent_chain(self):
        """Regression: the recursive _find blew the interpreter stack on
        chains deeper than the recursion limit.  Union-by-rank never
        builds such chains itself, so seed one directly and check the
        iterative find both resolves and fully compresses it."""
        import sys
        fc = FootprintClasses()
        depth = sys.getrecursionlimit() * 5
        fc._parent["s0"] = "s0"
        fc._rank["s0"] = 1
        for i in range(1, depth):
            fc._parent[f"s{i}"] = f"s{i - 1}"
            fc._rank[f"s{i}"] = 0
        assert fc.class_of([f"s{depth - 1}"]) == "s0"
        # Path compression: every stream on the chain now points at the
        # root, so the next find is O(1).
        assert fc._parent[f"s{depth - 1}"] == "s0"
        assert fc._parent[f"s{depth // 2}"] == "s0"


class TestExecutor:
    def test_fold_in_on_step(self):
        ex = Executor()
        du, state = counting_du("a", work=2)
        ex.enqueue_plan(["s1"], du)
        assert not ex.execution_objects
        ex.step()
        assert len(ex.execution_objects) == 1
        assert state["left"] == 1

    def test_disjoint_queries_get_separate_eos(self):
        ex = Executor()
        ex.enqueue_plan(["s1"], counting_du("a")[0])
        ex.enqueue_plan(["s2"], counting_du("b")[0])
        ex.step()
        assert len(ex.execution_objects) == 2

    def test_overlapping_queries_share_an_eo(self):
        ex = Executor()
        ex.enqueue_plan(["s1"], counting_du("a")[0])
        ex.enqueue_plan(["s1", "s2"], counting_du("b")[0])
        ex.step()
        assert len(ex.execution_objects) == 1
        assert len(ex.execution_objects[0].dispatch_units) == 2

    def test_bridging_query_merges_eos(self):
        ex = Executor()
        ex.enqueue_plan(["s1"], counting_du("a")[0])
        ex.enqueue_plan(["s2"], counting_du("b")[0])
        ex.step()
        assert len(ex.execution_objects) == 2
        ex.enqueue_plan(["s1", "s2"], counting_du("bridge")[0])
        ex.step()
        assert len(ex.execution_objects) == 1
        names = {du.name for du in ex.execution_objects[0].dispatch_units}
        assert names == {"a", "b", "bridge"}

    def test_bridging_query_merges_multiple_stale_classes(self):
        """eo_for with several stale class representatives: a footprint
        spanning three previously-disjoint classes must collapse all
        three EOs into one, migrating every DU and deregistering the
        absorbed EOs from the top-level scheduler."""
        ex = Executor()
        for stream in ("s1", "s2", "s3"):
            ex.enqueue_plan([stream], counting_du(f"du-{stream}", work=9)[0])
        ex.step()
        assert len(ex.execution_objects) == 3
        survivors = {eo.name for eo in ex.execution_objects}
        ex.enqueue_plan(["s1", "s2", "s3"], counting_du("bridge", work=9)[0])
        ex.step()
        assert len(ex.execution_objects) == 1
        merged = ex.execution_objects[0]
        assert merged.name in survivors      # reused, not recreated
        names = {du.name for du in merged.dispatch_units}
        assert names == {"du-s1", "du-s2", "du-s3", "bridge"}
        # The absorbed EOs are gone from the top-level scheduler: one
        # more step runs each surviving DU exactly once.
        quanta = {du.name: du.quanta for du in merged.dispatch_units}
        ex.step()
        for du in merged.dispatch_units:
            assert du.quanta == quanta[du.name] + 1

    def test_eo_for_is_stable_after_merge(self):
        """After a merge every constituent footprint resolves to the
        surviving EO, and repeated lookups do not allocate new EOs."""
        ex = Executor()
        ex.enqueue_plan(["s1"], counting_du("a", work=9)[0])
        ex.enqueue_plan(["s2"], counting_du("b", work=9)[0])
        ex.step()
        merged = ex.eo_for(["s1", "s2"])
        assert ex.eo_for(["s1"]) is merged
        assert ex.eo_for(["s2"]) is merged
        assert len(ex.execution_objects) == 1

    def test_run_until_quiescent(self):
        ex = Executor()
        du, state = counting_du("a", work=5)
        ex.enqueue_plan(["s1"], du)
        ex.run_until_quiescent()
        assert state["left"] == 0

    def test_stats(self):
        ex = Executor()
        ex.enqueue_plan(["s1"], counting_du("a")[0])
        ex.step()
        stats = ex.stats()
        assert stats["eos"] == 1
        assert stats["dus"] == 1


class TestFinishedDUsLeave:
    """A windowed query's DU leaves its EO once the query is cancelled
    or its for-loop runs out, so the executor stops holding the query's
    state (its plan and per-binding SteMs)."""

    WINDOWED = ("SELECT AVG(v) FROM s "
                "for (t = 2; t <= 4; t += 2) { WindowIs(s, t - 1, t); }")

    def test_cancelled_query_is_released(self):
        conn = connect()
        conn.create_stream("s", "v")
        cur = conn.submit(self.WINDOWED)
        conn.step()
        assert conn.server.executor.stats()["dus"] == 1
        state = weakref.ref(cur._windowed_state)
        conn.cancel(cur)
        conn.step()
        assert conn.server.executor.stats()["dus"] == 0
        del cur
        gc.collect()
        assert state() is None

    def test_query_whose_loop_runs_out_is_released(self):
        conn = connect()
        conn.create_stream("s", "v")
        cur = conn.submit(self.WINDOWED)
        state = weakref.ref(cur._windowed_state)
        conn.push_rows("s", [(float(i),) for i in range(1, 6)],
                       timestamp=1)
        conn.step(3)
        assert conn.server.executor.stats()["dus"] == 0
        assert [t for t, _rows in cur.fetch_windows()] == [2, 4]
        cur.close()
        del cur
        gc.collect()
        assert state() is None

    def test_retired_quanta_keep_counting(self):
        conn = connect()
        conn.create_stream("s", "v")
        cur = conn.submit(self.WINDOWED)
        conn.step()
        conn.push_rows("s", [(float(i),) for i in range(1, 6)],
                       timestamp=1)
        conn.step(3)
        snap = conn.telemetry()
        quanta = [s for s in snap.samples
                  if s.name == "tcq_executor_du_quanta_total"]
        assert [s.labels["du"] for s in quanta] == ["retired"]
        assert quanta[0].value == 2      # one idle, one that fired both
        cur.close()
