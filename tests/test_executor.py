"""Tests for the server's executor: each windowed plan is one unit of the
server's scheduler, run one quantum per step, and dropped once it
finishes."""

import gc
import weakref

from repro.client import connect


class TestFinishedDUsLeave:
    """A windowed query's plan leaves the scheduler once the query is
    cancelled or its for-loop runs out, so the server stops holding the
    query's state (its plan and per-binding SteMs)."""

    WINDOWED = ("SELECT AVG(v) FROM s "
                "for (t = 2; t <= 4; t += 2) { WindowIs(s, t - 1, t); }")

    def test_cancelled_query_is_released(self):
        conn = connect()
        conn.create_stream("s", "v")
        cur = conn.submit(self.WINDOWED)
        conn.step()
        assert conn.stats()["executor"]["dus"] == 1
        state = weakref.ref(cur._windowed_state)
        conn.cancel(cur)
        conn.step()
        assert conn.stats()["executor"]["dus"] == 0
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
        assert conn.stats()["executor"]["dus"] == 0
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
        assert [s.labels for s in quanta] == [{"du": "retired"}]
        assert quanta[0].value == 2      # one idle, one that fired both
        assert conn.stats()["executor"] == {"steps": 4, "dus": 0}
        cur.close()


#: two windowed queries over disjoint streams, then a windowed join
#: bridging them, submitted once both streams have data.
OVER_S = ("SELECT COUNT(*), SUM(v) FROM s "
          "for (t = 3; t <= 14; t++) { WindowIs(s, t - 2, t); }")
OVER_T = ("SELECT MAX(w) FROM t "
          "for (t = 4; t <= 14; t += 2) { WindowIs(t, t - 3, t); }")
BRIDGE = ("SELECT s.v, t.w FROM s, t WHERE s.k = t.k "
          "for (t = ST; t <= 14; t++) { WindowIs(s, t - 3, t); "
          "WindowIs(t, t - 3, t); }")


def _drive(queries):
    """Run the ``(sql, submitted_after_ts)`` pairs over one fixed push
    and step schedule; returns each cursor's windows, in order."""
    conn = connect()
    conn.create_stream("s", "k", "v")
    conn.create_stream("t", "k", "w")
    cursors = [None] * len(queries)
    for ts in range(1, 16):
        for i, (sql, after) in enumerate(queries):
            if after == ts - 1:
                cursors[i] = conn.submit(sql)
        conn.push_rows("s", [(ts % 3, ts)], timestamp=ts)
        conn.push_rows("t", [(ts % 2, 10 * ts)], timestamp=ts)
        conn.step()
    conn.run()
    return [cursor.fetch_windows() for cursor in cursors]


def test_a_bridging_windowed_join_changes_no_cursors_windows():
    """Windowed cursors over disjoint footprints and a windowed join
    bridging them mid-stream each deliver the windows they deliver
    alone."""
    queries = [(OVER_S, 0), (OVER_T, 0), (BRIDGE, 6)]
    together = _drive(queries)
    alone = [_drive([query])[0] for query in queries]
    assert together == alone
    assert [len(windows) for windows in together] == [12, 6, 8]
    assert any(rows for _t, rows in together[2])
