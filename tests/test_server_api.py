"""The redesigned server/cursor API: context managers, unified fetch,
and the _queue deprecation."""

import pytest

from repro.core.engine import TelegraphCQServer
from repro.core.tuples import Schema
from repro.errors import ExecutionError


def make_server():
    server = TelegraphCQServer()
    server.create_stream(Schema.of("trades", "sym", "price"))
    return server


class TestServerLifecycle:
    def test_context_manager_closes_everything(self):
        with make_server() as server:
            cursor = server.submit("SELECT * FROM trades WHERE price > 1")
            server.push("trades", "A", 2.0)
            assert not server.closed
        assert server.closed
        assert cursor.closed
        with pytest.raises(ExecutionError):
            server.push("trades", "B", 3.0)

    def test_close_is_idempotent(self):
        server = make_server()
        server.close()
        server.close()
        assert server.closed

    def test_close_cancels_continuous_queries(self):
        server = make_server()
        server.submit("SELECT * FROM trades WHERE price > 1")
        assert len(server.cacq.queries) == 1
        server.close()
        assert len(server.cacq.queries) == 0

    def test_open_cursors_tracks_closes(self):
        server = make_server()
        c1 = server.submit("SELECT * FROM trades WHERE price > 1")
        c2 = server.submit("SELECT * FROM trades WHERE price > 2")
        assert {c.cursor_id for c in server.open_cursors()} == \
            {c1.cursor_id, c2.cursor_id}
        c1.close()
        assert [c.cursor_id for c in server.open_cursors()] == \
            [c2.cursor_id]


class TestCursorLifecycle:
    def test_cursor_context_manager_cancels(self):
        server = make_server()
        with server.submit("SELECT * FROM trades WHERE price > 1") as cur:
            server.push("trades", "A", 2.0)
            assert cur.fetch() != []
        assert cur.closed
        assert cur.continuous_query is None
        # After close, deliveries stop reaching the cursor.
        server.push("trades", "B", 9.0)
        assert cur.fetch() == []

    def test_closed_cursor_keeps_buffered_results(self):
        server = make_server()
        cur = server.submit("SELECT * FROM trades WHERE price > 1")
        server.push("trades", "A", 2.0)
        cur.close()
        rows = cur.fetch()
        assert [t["sym"] for t in rows] == ["A"]

    def test_windowed_cursor_close_stops_evaluation(self):
        server = TelegraphCQServer()
        server.create_stream(Schema.of("s", "v"))
        cur = server.submit(
            "SELECT v FROM s for (t = 1; t <= 100; t++) "
            "{ WindowIs(s, t, t); }")
        for i in range(1, 6):
            server.push("s", i, timestamp=i)
        server.step()
        cur.close()
        produced = cur.pending()
        for i in range(6, 11):
            server.push("s", i, timestamp=i)
        server.run_until_quiescent()
        assert cur.pending() == produced  # no new windows evaluated


class TestUnifiedFetch:
    def submit_windowed(self, server):
        return server.submit(
            "SELECT v FROM s for (t = 1; t <= 100; t++) "
            "{ WindowIs(s, t, t); }")

    def test_fetch_flattens_windows(self):
        server = TelegraphCQServer()
        server.create_stream(Schema.of("s", "v"))
        cur = self.submit_windowed(server)
        for i in range(1, 5):
            server.push("s", i * 10, timestamp=i)
        server.run_until_quiescent()
        rows = cur.fetch()
        # windows [1,1]..[3,3] are complete (t=4 still open)
        assert [t["v"] for t in rows] == [10, 20, 30]
        assert cur.fetch() == []

    def test_fetch_respects_limit_across_windows(self):
        server = TelegraphCQServer()
        server.create_stream(Schema.of("s", "v"))
        cur = self.submit_windowed(server)
        for i in range(1, 6):
            server.push("s", i, timestamp=i)
        server.run_until_quiescent()
        first = cur.fetch(limit=2)
        rest = cur.fetch()
        assert len(first) == 2
        assert [t["v"] for t in first + rest] == [1, 2, 3, 4]

    def test_windowed_and_snapshot_rows_are_counted_once(self):
        server = TelegraphCQServer()
        server.create_stream(Schema.of("s", "v"))
        cur = self.submit_windowed(server)
        for i in range(1, 6):
            server.push("s", i, timestamp=i)
        server.run_until_quiescent()
        assert (cur.delivered, cur.pending()) == (4, 4)
        assert len(cur.fetch(limit=3)) == 3
        assert (cur.delivered, cur.pending()) == (4, 1)
        server.push("s", 6, timestamp=6)
        server.run_until_quiescent()
        assert (cur.delivered, cur.pending()) == (5, 2)
        assert len(cur.fetch_windows()) == 1
        assert (cur.delivered, cur.pending()) == (5, 1)
        assert [t["v"] for t in cur.fetch()] == [4]
        assert (cur.delivered, cur.pending()) == (5, 0)
        server.create_table(Schema.of("tbl", "v"), [(1,), (2,)])
        snap = server.submit("SELECT * FROM tbl")
        assert (snap.delivered, snap.pending()) == (2, 2)
        assert len(snap.fetch()) == 2
        assert (snap.delivered, snap.pending()) == (2, 0)

    def test_fetch_windows_still_gives_sequence_of_sets(self):
        server = TelegraphCQServer()
        server.create_stream(Schema.of("s", "v"))
        cur = self.submit_windowed(server)
        for i in range(1, 4):
            server.push("s", i, timestamp=i)
        server.run_until_quiescent()
        windows = cur.fetch_windows()
        assert [t for t, _rows in windows] == [1, 2]
        assert all(len(rows) == 1 for _t, rows in windows)

    def test_fetch_drains_in_bulk_and_counts_and_traces_every_row(self):
        import repro.monitor.tracing as tracing
        server = make_server()
        cur = server.submit("SELECT * FROM trades WHERE price > 1")
        assert cur.fetch() == [] and cur.fetch(limit=3) == []
        tracing.TRACER.configure(sample_every=1)
        try:
            server.push_rows("trades", [("A", float(p)) for p in range(7)])
            assert (cur.delivered, cur.pending()) == (5, 5)
            first = cur.fetch(limit=2)
            assert (cur.delivered, cur.pending()) == (5, 3)
            rest = cur.fetch()
        finally:
            tracing.TRACER.configure(sample_every=0)
            tracing.TRACER.reset()
        assert [t["price"] for t in first + rest] == [2.0, 3.0, 4.0, 5.0, 6.0]
        assert len(first) == 2 and cur.fetch() == []
        assert (cur.delivered, cur.pending()) == (5, 0)
        # A pull cursor's rows are delivered once, into its buffer: the
        # trace closes at delivery, and egress is the last hop and the
        # only one.
        for t in first + rest:
            kinds = [(h.kind, h.site, h.detail) for h in t.trace.hops]
            assert kinds[-1] == ("egress", f"cursor{cur.cursor_id}", "")
            assert [k for k, _s, _d in kinds].count("egress") == 1
            assert t.trace.finished_at is not None

    def test_queue_attribute_is_gone(self):
        # The deprecated ``_queue`` escape hatch is removed: fetch /
        # fetchall / iteration are the only read surface, identical on
        # local and network cursors.
        server = make_server()
        cur = server.submit("SELECT * FROM trades WHERE price > 1")
        with pytest.raises(AttributeError):
            cur._queue
