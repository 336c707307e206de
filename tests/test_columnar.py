"""Batch execution: the lineage-aliasing audit, batch subsetting,
kernel equivalence, fused predicate chains, and the plan freezer's
freeze/thaw state machine."""

import os
import subprocess
import sys

import pytest

from repro.core.eddy import Eddy, EddyOperator, FilterOperator
from repro.core.routing import BatchingDirective, FixedPolicy
from repro.core.tuples import Schema, TupleBatch
from repro.monitor import introspect
from repro.monitor.introspect import explain_eddy, render_explain
from repro.monitor.stats import StabilityCounter
from repro.query.predicates import (And, Comparison, Not, Or,
                                    compile_fused)

S = Schema.of("s", "a", "b", "c")


def batch_of(rows):
    return TupleBatch.from_tuples(
        [S.make(*r, timestamp=i) for i, r in enumerate(rows)])


# ------------------------------------------------------- batch subsetting

class TestBatchSubsets:
    def test_take_partition_slice_agree(self):
        for retain_rows in (True, False):
            self._check_subsets(retain_rows)

    def _check_subsets(self, retain_rows):
        rows = [S.make(*r, timestamp=10 + i) for i, r in enumerate(
            [(1, "w", None), (2, "x", 1), (3, "y", None), (4, "z", 2)])]
        batch = TupleBatch.from_tuples(rows, retain_rows=retain_rows)
        taken = batch.take([1, 3])
        assert taken.columns == [[2, 4], ["x", "z"], [1, 2]]
        assert taken.timestamps == [11, 13]
        passed, failed = batch.partition([False, True, False, True])
        assert passed.columns == taken.columns
        assert passed.timestamps == taken.timestamps
        assert failed.columns == [[1, 3], ["w", "y"], [None, None]]
        assert failed.timestamps == [10, 12]
        sliced = batch.slice(1, 3)
        assert sliced.columns == [[2, 3], ["x", "y"], [1, None]]
        assert sliced.timestamps == [11, 12]
        # Every child owns its column lists: none is the parent's.
        for child in (taken, passed, failed, sliced):
            assert all(c is not p
                       for c, p in zip(child.columns, batch.columns))
            assert (child._rows is None) == (not retain_rows)

    def test_all_pass_partition_returns_the_batch(self):
        batch = batch_of([(1, "x", 0), (2, "y", 0)])
        passed, failed = batch.partition([True, True])
        assert passed is batch and len(failed) == 0


# ------------------------------------------------- lineage-aliasing audit

class TestAliasingAudit:
    """slice/take/partition hand out children over the parent's rows;
    nothing reachable from a child may write through to a sibling."""

    def test_materializing_a_slice_leaves_siblings_intact(self):
        # Column-backed batch (no row backing): slices over the same
        # values must materialize INDEPENDENT row objects.
        # (Row-backed batches share rows on purpose — that is lineage.)
        batch = TupleBatch(S, [[i for i in range(8)],
                               [i * 2 for i in range(8)],
                               [i * 3 for i in range(8)]],
                           timestamps=list(range(8)))
        left, right = batch.slice(0, 4), batch.slice(2, 8)
        rows = left.materialize()
        rows[2].done = 0xFF
        rows[2].dead = True
        # The sibling slice materializes its own rows from its own
        # columns; the mutated row must not leak across.
        sib = right.materialize()
        assert sib[0].done == 0
        assert not sib[0].dead
        assert sib[0].values == (2, 4, 6)

    def test_row_backed_subsets_alias_the_same_tuples(self):
        """The flip side: when the batch IS row-backed (SteM lineage),
        subsets must keep pointing at the SAME Tuple objects so
        mark_done/mark_dead stay visible everywhere."""
        rows = [S.make(i, i, i, timestamp=i) for i in range(6)]
        batch = TupleBatch.from_tuples(rows)
        sub = batch.take([1, 4])
        assert sub.materialize()[0] is rows[1]
        sub.mark_done(0b100)
        assert rows[1].done == 0b100 and rows[4].done == 0b100
        # but NOT rows outside the subset
        assert rows[0].done == 0

    def test_partition_kills_only_the_failed_side(self):
        rows = [S.make(i, 0, 0, timestamp=i) for i in range(6)]
        batch = TupleBatch.from_tuples(rows)
        passed, failed = batch.partition(
            [r.values[0] % 2 == 0 for r in rows])
        failed.mark_dead()
        assert all(r.dead for r in failed.materialize())
        assert not any(r.dead for r in passed.materialize())

    def test_from_tuples_retain_rows_false_is_column_backed(self):
        """Ingress mode: values are copied out, the source row objects
        are dropped, and lineage updates no longer reach them."""
        rows = [S.make(i, i, i, timestamp=i) for i in range(4)]
        batch = TupleBatch.from_tuples(rows, retain_rows=False)
        assert batch._rows is None
        batch.mark_done(0b10)
        assert all(r.done == 0 for r in rows)       # no aliasing back
        fresh = batch.materialize()
        assert all(f is not r for f, r in zip(fresh, rows))
        assert [f.values for f in fresh] == [r.values for r in rows]
        assert all(f.done == 0b10 for f in fresh)


# ----------------------------------------------------- columnar ingress

class TestColumnarIngress:
    def _gen(self, **kw):
        from repro.ingress.generators import DriftingSelectivityGenerator
        return DriftingSelectivityGenerator(
            seed=17, flip_at=48, low_pass=0.1, high_pass=0.9, **kw)

    def test_take_batches_matches_take(self):
        rows = self._gen().take(100)
        batches = self._gen().take_batches(100, 32)
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        flat = [(b.column("a")[i], b.column("b")[i])
                for b in batches for i in range(len(b))]
        assert flat == [t.values for t in rows]
        assert [ts for b in batches for ts in b.timestamps] == \
            [t.timestamp for t in rows]


# --------------------------------------------------- kernel equivalence

MIXED_ROWS = [(1, "x", None), (2, "y", 3), (0, "x", 1.5),
              (2 ** 60, "z", None), (-1, "y", 2)]


class TestKernelEquivalence:
    @pytest.mark.parametrize("pred", [
        Comparison("a", "==", 2),
        Comparison("a", ">", 0),
        Comparison("b", "==", "y"),
        Comparison("a", "<=", 1.5),          # int col vs float literal
        And(Comparison("a", ">", 0), Comparison("b", "!=", "z")),
        Or(Comparison("a", "<", 0), Comparison("b", "==", "x")),
        Not(Comparison("a", ">=", 2)),
    ])
    def test_kernel_matches_per_tuple(self, pred):
        batch = batch_of(MIXED_ROWS)
        expected = [pred.matches(t) for t in batch.materialize()]
        assert pred.compile()(batch) == expected

    def test_none_bearing_column_takes_fallback(self):
        batch = batch_of(MIXED_ROWS)
        pred = Comparison("c", "==", 3)
        got = pred.compile()(batch)
        assert got == [pred.matches(t) for t in batch.materialize()]
        assert got == [False, True, False, False, False]


# ----------------------------------------------------------- fused chains

class TestFusedChain:
    def test_fused_equals_sequential(self):
        preds = [Comparison("a", ">", 0), Comparison("b", "==", "y"),
                 Comparison("a", "<", 100)]
        batch = batch_of(MIXED_ROWS)
        alive, masks = compile_fused(preds)(batch)
        expected_alive = [all(p.matches(t) for p in preds)
                          for t in batch.materialize()]
        assert alive == expected_alive
        assert len(masks) == 3
        for p, m in zip(preds, masks):
            assert m == [p.matches(t) for t in batch.materialize()]

    def test_stagewise_outcomes_match_unfused_counters(self):
        """Stage 1's mask at the rows stage 0 passed is exactly the
        outcome sequence the unfused path would observe at stage 1."""
        preds = [Comparison("a", ">", 0), Comparison("a", "<", 2)]
        batch = batch_of([(i % 3, "x", 0) for i in range(9)])
        _alive, masks = compile_fused(preds)(batch)
        stage0 = masks[0]
        stage1 = [m for m, ok in zip(masks[1], stage0) if ok]
        # Unfused: stage 1 only sees stage-0 survivors.
        rows = [t for t in batch.materialize() if preds[0].matches(t)]
        assert stage1 == [preds[1].matches(t) for t in rows]
        assert len(stage1) == sum(stage0)

    def test_empty_chain_passes_everything(self):
        batch = batch_of(MIXED_ROWS)
        alive, masks = compile_fused([])(batch)
        assert alive == [True] * len(batch)
        assert masks == []


# ------------------------------------------------- selectivity bookkeeping

class TestEwmaUpdate:
    @pytest.mark.parametrize("outcomes", [
        [], [True], [False, True, True, False] * 8,
    ])
    def test_closed_form_matches_sequential(self, outcomes):
        """_observe_batch is _observe once per element, and its EWMA is
        the closed form e_n = (1-a)^n e_0 + a * sum_j (1-a)^(n-1-j) b_j."""
        one, many = EddyOperator("one"), EddyOperator("many")
        for op in (one, many):
            op._ewma_selectivity = 0.7
        for b in outcomes:
            one._observe(b)
        many._observe_batch(outcomes)
        assert (many.seen, many.passed_count, many._ewma_selectivity) == \
            (one.seen, one.passed_count, one._ewma_selectivity)
        a, n = many._ewma_alpha, len(outcomes)
        closed = (1 - a) ** n * 0.7 + a * sum(
            (1 - a) ** (n - 1 - j) for j, b in enumerate(outcomes) if b)
        assert many._ewma_selectivity == pytest.approx(closed, abs=1e-12)

    def test_stability_counter_streaks(self):
        c = StabilityCounter()
        assert c.observe(("fa", "fb")) == 1
        assert c.observe(("fa", "fb")) == 2
        assert c.observe(("fb", "fa")) == 1
        c.reset()
        assert c.observe(("fb", "fa")) == 1


# ------------------------------------------------------------ plan freezer

D = Schema.of("d", "a", "b")


def _freezer_rig(stable_routes=3, **kw):
    ops = [FilterOperator(Comparison("a", "==", 1), name="fa"),
           FilterOperator(Comparison("b", "==", 1), name="fb")]
    eddy = Eddy(ops, output_sources={"d"},
                policy=FixedPolicy(["fa", "fb"]),
                batching=BatchingDirective(8, vectorize=True))
    freezer = eddy.enable_freezing(stable_routes=stable_routes, **kw)
    return eddy, ops, freezer


def _push(eddy, rows):
    out = 0
    batch = TupleBatch.from_tuples(
        [D.make(*r, timestamp=i) for i, r in enumerate(rows)])
    for item in eddy.process_batch(batch, 0):
        out += len(item) if isinstance(item, TupleBatch) else 1
    return out


class TestPlanFreezer:
    def test_freezes_after_stable_streak_and_runs_frozen(self):
        eddy, ops, fz = _freezer_rig(stable_routes=3, check_every=10_000)
        for _ in range(3):
            _push(eddy, [(1, 1)] * 8)
        assert fz.freezes == 1 and fz.frozen
        assert fz.frozen_batches == 0
        before = eddy.routing_decisions
        out = _push(eddy, [(1, 1)] * 8)
        assert out == 8
        assert fz.frozen_batches == 1 and fz.frozen_rows == 8
        # The frozen fast path bypasses the policy entirely.
        assert eddy.routing_decisions == before

    def test_incomplete_routes_never_freeze(self):
        """A batch that dies mid-route saw a truncated operator list;
        it must not count toward the freeze streak."""
        eddy, ops, fz = _freezer_rig(stable_routes=2)
        for _ in range(10):
            _push(eddy, [(0, 0)] * 8)     # every row dies at fa
        assert fz.freezes == 0 and not fz.frozen

    def test_thaws_on_selectivity_drift(self):
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=64,
                                     drift_threshold=0.15)
        for _ in range(4):
            _push(eddy, [(1, 1)] * 8)
        assert fz.frozen
        # Flip the distribution: fa's pass rate collapses; the frozen
        # path keeps observing, so drift crosses the threshold.
        for _ in range(80):
            if not fz.frozen:
                break
            _push(eddy, [(0, 1)] * 8)
        assert fz.thaws == 1 and not fz.frozen
        assert "drift" in fz.thaw_log[0]["reason"]
        # Streak evidence restarts from scratch after a thaw.
        assert fz._streaks[(0, frozenset({"d"}))].streak == 0

    def test_thaws_on_flight_recorder_route_change(self):
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=8,
                                     drift_threshold=10.0)
        for _ in range(2):
            _push(eddy, [(1, 1)] * 8)
        key = (0, frozenset({"d"}))
        assert key in fz.frozen
        rec = introspect.RECORDER
        rec.configure(enabled=True)
        try:
            # A recorded decision contradicting the pinned order: the
            # policy now picks fb where the frozen route runs fa first.
            rec.record(eddy._telemetry_id, eddy.policy, ops[1], ops)
            _push(eddy, [(1, 1)] * 8)
        finally:
            rec.configure(enabled=False)
            rec.clear()
        assert not fz.frozen and fz.thaws == 1
        assert "route-change" in fz.thaw_log[0]["reason"]

    def test_frozen_results_and_counters_match_adaptive(self):
        rows = ([(1, 1)] * 5 + [(0, 1)] * 2 + [(1, 0)] * 1) * 12
        ref_eddy, ref_ops, _ref_fz = _freezer_rig(stable_routes=10 ** 6)
        ref_out = sum(_push(ref_eddy, rows[i:i + 8])
                      for i in range(0, len(rows), 8))
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=10 ** 6)
        out = sum(_push(eddy, rows[i:i + 8])
                  for i in range(0, len(rows), 8))
        assert fz.frozen_batches > 0
        assert out == ref_out
        for a, b in zip(ref_ops, ops):
            assert (a.seen, a.passed_count) == (b.seen, b.passed_count)
            assert a._ewma_selectivity == pytest.approx(
                b._ewma_selectivity, abs=1e-9)

    def test_explain_reports_frozen_and_reverts_after_thaw(self):
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=10 ** 6)
        for _ in range(3):
            _push(eddy, [(1, 1)] * 8)
        report = explain_eddy(eddy)
        assert report["ordering_source"] == "frozen"
        assert report["orderings"][0]["order"] == ["fa", "fb"]
        assert report["freeze"]["active"] == 1
        text = render_explain(report)
        assert "source=frozen" in text and "plan freezer" in text
        assert "fused: fa+fb" in text
        fz.thaw_all(reason="test")
        after = explain_eddy(eddy)
        assert after["ordering_source"] != "frozen"
        assert after["freeze"]["active"] == 0
        assert "thawed fa -> fb" in render_explain(after)

    def test_freeze_telemetry_counters_published(self):
        from repro.monitor.telemetry import get_registry
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=10 ** 6)
        for _ in range(4):
            _push(eddy, [(1, 1)] * 8)
        snap = get_registry().snapshot()
        fzid = fz._telemetry_id
        assert snap.value("tcq_freeze_engaged_total", freezer=fzid) == 1
        assert snap.value("tcq_freeze_thaws_total", freezer=fzid) == 0
        assert snap.value("tcq_freeze_frozen_batches_total",
                          freezer=fzid) >= 1
        assert snap.value("tcq_freeze_frozen_rows_total",
                          freezer=fzid) >= 8
        assert snap.value("tcq_freeze_active", freezer=fzid) == 1

    def test_disable_freezing_thaws_everything(self):
        eddy, ops, fz = _freezer_rig(stable_routes=2, check_every=10 ** 6)
        for _ in range(3):
            _push(eddy, [(1, 1)] * 8)
        assert fz.frozen
        eddy.disable_freezing()
        assert eddy.freezer is None and not fz.frozen
        # And the eddy keeps running adaptively.
        assert _push(eddy, [(1, 1)] * 8) == 8


# ----------------------------------------------------------- import graph

def test_import_graph_stays_pure_python():
    """The package and its client door import no array library: batch
    columns are plain lists, so nothing in the import graph needs one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH", "")])))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; from repro.client import connect; "
         "assert 'numpy' not in sys.modules, 'numpy imported'; "
         "print('ok')"],
        capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert probe.returncode == 0 and "ok" in probe.stdout, probe.stderr
