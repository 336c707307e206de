"""Pull delivery: a continuous cursor with no ``on_result`` is fed by its
CACQ query appending into the cursor's own list.

Whatever interleaving of ``push_rows``, ``fetch(limit=k)``, ``cancel``
and bridging joins a client drives, a pull cursor must hand back exactly
the rows, in exactly the order, that the callback path delivers when
the same rows go in one ``push`` at a time; ``Cursor.delivered``,
``pending()`` and ``tcq_server_egress_tuples_total`` must agree, and
rows buffered before a cancel or a bridging join stay fetchable.
"""

from hypothesis import given, settings, strategies as st

from repro.core.cacq import CACQEngine
from repro.core.engine import TelegraphCQServer
from repro.core.tuples import Schema
from repro.monitor.telemetry import MetricRegistry, set_registry
import repro.monitor.tracing as tracing
from repro.query.predicates import Comparison

A = Schema.of("a", "k", "v")
B = Schema.of("b", "k", "w")
#: the first two read a and b apart until a "merge" op admits the join
#: that bridges them: an ordinary admission into the one engine.
STANDING = ["SELECT * FROM a WHERE v > 4", "SELECT * FROM b WHERE w > 2",
            "SELECT * FROM a WHERE k = 1"]
JOIN_SQL = "SELECT * FROM a, b WHERE a.k = b.k"


def flat(t):
    return (t.values, t.timestamp)


class Run:
    """One server under a private registry; ``pull`` picks the sink."""

    def __init__(self, pull):
        self.previous = set_registry(MetricRegistry())
        self.pull = pull
        self.srv = TelegraphCQServer()
        self.srv.create_stream(A)
        self.srv.create_stream(B)
        self.cursors = []
        self.seen = []          # callback path: every row, in order
        self.taken = []         # callback path: how many were "fetched"
        for sql in STANDING:
            self.submit(sql)

    def submit(self, sql):
        if self.pull:
            self.cursors.append(self.srv.submit(sql))
            return
        seen = []
        self.seen.append(seen)
        self.taken.append(0)
        self.cursors.append(self.srv.submit(sql, on_result=seen.append))

    def push(self, stream, rows):
        if self.pull:
            self.srv.push_rows(stream, rows)
        else:
            for row in rows:
                self.srv.push(stream, *row)

    def fetch(self, i, k):
        if self.pull:
            return [flat(t) for t in self.cursors[i].fetch(limit=k)]
        start = self.taken[i]
        stop = len(self.seen[i]) if not k else min(start + k,
                                                   len(self.seen[i]))
        self.taken[i] = stop
        return [flat(t) for t in self.seen[i][start:stop]]

    def pending(self, i):
        if self.pull:
            return self.cursors[i].pending()
        return len(self.seen[i]) - self.taken[i]

    def egress(self):
        return self.srv.telemetry().value("tcq_server_egress_tuples_total")

    def close(self):
        self.srv.close()
        set_registry(self.previous)


def drive(ops, pull):
    run = Run(pull)
    trail = []
    try:
        for op in ops:
            kind = op[0]
            if kind == "push":
                run.push(op[1], op[2])
            elif kind == "merge":
                run.submit(JOIN_SQL)
            else:
                i = op[1] % len(run.cursors)
                if kind == "cancel":
                    run.cursors[i].cancel()
                else:
                    got = run.fetch(i, op[2])
                    assert not op[2] or len(got) <= op[2]
                    trail.append(("fetch", i, got))
            trail.append(("state", [run.cursors[i].delivered
                                    for i in range(len(run.cursors))],
                          [run.pending(i) for i in range(len(run.cursors))],
                          run.egress()))
        trail.append(("rest", [run.fetch(i, 0)
                               for i in range(len(run.cursors))],
                      [run.pending(i) for i in range(len(run.cursors))]))
    finally:
        run.close()
    return trail


row = st.tuples(st.integers(0, 3), st.integers(0, 9))
op = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(["a", "b"]),
              st.lists(row, min_size=1, max_size=6)),
    st.tuples(st.just("fetch"), st.integers(0, 7), st.integers(0, 3)),
    st.tuples(st.just("cancel"), st.integers(0, 7)),
    st.tuples(st.just("merge")))


@settings(max_examples=80, deadline=None)
@given(st.lists(op, max_size=16))
def test_pull_cursors_match_the_per_row_callback_path(ops):
    assert drive(ops, pull=True) == drive(ops, pull=False)


def test_rows_buffered_before_a_cancel_or_a_merge_stay_fetchable():
    """The "merge" is the join bridging ``a`` and ``b``: an ordinary
    admission, which leaves every buffer as it was."""
    previous = set_registry(MetricRegistry())
    try:
        srv = TelegraphCQServer()
        srv.create_stream(A)
        srv.create_stream(B)
        on_a = srv.submit("SELECT * FROM a WHERE v > 0")
        on_b = srv.submit("SELECT * FROM b WHERE w > 0")
        srv.push_rows("a", [(1, 1), (2, 2)])
        srv.push_rows("b", [(1, 5)])
        srv.submit(JOIN_SQL)                    # bridges a and b
        srv.push_rows("a", [(3, 3)])
        on_a.cancel()
        srv.push_rows("a", [(4, 4)])            # after the cancel
        assert (on_a.delivered, on_a.pending()) == (3, 3)
        assert [t["v"] for t in on_a.fetch(limit=2)] == [1, 2]
        assert [t["v"] for t in on_a.fetch()] == [3]
        assert [t["w"] for t in on_b.fetch()] == [5]
        # 3 on ``a``, 1 on ``b``; the join saw no pair (k = 3 has no b)
        assert srv.telemetry().value("tcq_server_egress_tuples_total") == 4
        srv.close()
    finally:
        set_registry(previous)


def test_a_merge_inside_a_row_still_reaches_the_pull_cursor():
    """A callback admits a bridging join while the row that fired it is
    still being delivered: the engine finishes that row, and the other
    queries append to the very lists the cursors read."""
    def run(pull, batched):
        previous = set_registry(MetricRegistry())
        srv = TelegraphCQServer()
        srv.create_stream(A)
        srv.create_stream(B)
        first = []

        def on_first(t):
            first.append(t["v"])
            if len(first) == 3:
                srv.submit(JOIN_SQL)

        srv.submit("SELECT * FROM a WHERE v >= 0", on_result=on_first)
        late = []
        second = srv.submit("SELECT * FROM a WHERE v > 1",
                            on_result=None if pull else late.append)
        srv.submit("SELECT * FROM b WHERE w >= 0")
        rows = [(i % 4, i) for i in range(8)]
        if batched:
            srv.push_rows("a", rows)
        else:
            for r in rows:
                srv.push("a", *r)
        out = ([t["v"] for t in second.fetch()] if pull
               else [t["v"] for t in late], second.delivered)
        srv.close()
        set_registry(previous)
        return out

    want = ([2, 3, 4, 5, 6, 7], 6)
    assert run(True, True) == run(True, False) == run(False, True) == want


def test_a_sampled_row_closes_its_trace_at_delivery_to_a_pull_cursor():
    previous = set_registry(MetricRegistry())
    tracing.configure_tracing(1)
    try:
        srv = TelegraphCQServer()
        srv.create_stream(A)
        cur = srv.submit("SELECT * FROM a WHERE v > 1")
        srv.push_rows("a", [(0, v) for v in range(5)])
        # nothing fetched yet: the traces closed when the rows arrived
        latency = srv.explain(cur, analyze=True)["latency"]
        assert latency["count"] == 3.0
        name = f"cursor{cur.cursor_id}"
        rows = cur.fetch()
        assert [t["v"] for t in rows] == [2, 3, 4]
        for t in rows:
            assert t.trace.hops[-1].kind == "egress"
            assert t.trace.hops[-1].site == name
            assert t.trace.query == name
        srv.close()
    finally:
        tracing.configure_tracing(0)
        tracing.TRACER.reset()
        set_registry(previous)


def test_a_bare_engine_query_leaves_traces_open():
    previous = set_registry(MetricRegistry())
    tracing.configure_tracing(1)
    try:
        engine = CACQEngine()
        engine.register_stream(A)
        q = engine.add_query(["a"], Comparison("v", ">", 1))
        t = A.make(0, 2, timestamp=1)
        tracing.TRACER.maybe_start(t, "test")
        engine.push_tuple("a", t)
        assert q.results == [t] and q.delivered == 1
        assert [h.kind for h in t.trace.hops] == ["ingress", "filter"]
        assert t.trace.finished_at is None
    finally:
        tracing.configure_tracing(0)
        tracing.TRACER.reset()
        set_registry(previous)
