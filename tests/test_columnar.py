"""Batch execution: the lineage-aliasing audit, batch subsetting,
kernel equivalence and batched selectivity bookkeeping."""

import os
import subprocess
import sys

import pytest

from repro.core.eddy import EddyOperator
from repro.core.tuples import Schema, TupleBatch
from repro.query.predicates import And, Comparison, Not, Or

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
