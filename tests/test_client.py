"""The unified client API: one surface, two transports.

Every scenario here runs twice — once over :class:`LocalConnection`
(in-process engine) and once over :class:`NetworkConnection` (real
loopback socket to a TelegraphCQService) — and must behave identically:
same rows, same cursor surface, same error taxonomy, same rendered
diagnostics.
"""

import contextlib

import pytest

from repro.analysis.report import PlanCheckWarning
from repro.errors import (ExecutionError, ParseError, PlanCheckError,
                          ProtocolError, QueryError, SchemaError)
from repro.client import LocalConnection, NetworkConnection, connect
from repro.net.service import TelegraphCQService


@pytest.fixture(params=["local",
                        pytest.param("network", marks=pytest.mark.net)])
def conn(request):
    if request.param == "local":
        with LocalConnection(client="t") as c:
            yield c
        return
    service = TelegraphCQService(admin_port=None)
    service.run_in_thread()
    try:
        with connect(f"tcp://127.0.0.1:{service.port}", client="t") as c:
            yield c
    finally:
        service.close()


# ---------------------------------------------------------------------------
# connect() dispatch
# ---------------------------------------------------------------------------

def test_connect_default_is_local():
    c = connect()
    assert isinstance(c, LocalConnection)
    c.close()


def test_connect_local_keyword():
    c = connect("local")
    assert isinstance(c, LocalConnection)
    c.close()


def test_connect_tcp_address_is_network():
    service = TelegraphCQService(admin_port=None)
    service.run_in_thread()
    try:
        c = connect(f"tcp://127.0.0.1:{service.port}")
        assert isinstance(c, NetworkConnection)
        assert c.session is not None
        c.close()
    finally:
        service.close()


def test_connect_rejects_bad_address():
    with pytest.raises(ProtocolError):
        connect("tcp://nowhere")          # no port


# ---------------------------------------------------------------------------
# symmetric behavior over both transports
# ---------------------------------------------------------------------------

def test_continuous_query_same_rows(conn):
    conn.create_stream("trades", "sym", "price")
    cur = conn.submit("SELECT * FROM trades WHERE price > 100")
    assert cur.kind == "continuous"
    for sym, p in [("MSFT", 95.0), ("IBM", 120.0), ("ORCL", 101.5)]:
        conn.push("trades", sym, p)
    rows = cur.fetchall()
    assert [(r["sym"], r["price"]) for r in rows] == \
        [("IBM", 120.0), ("ORCL", 101.5)]
    assert all(hasattr(r, "timestamp") for r in rows)


def test_iteration_matches_fetch(conn):
    conn.create_stream("s", "a")
    cur = conn.submit("SELECT * FROM s WHERE a > 0")
    conn.push_rows("s", [[v] for v in range(1, 6)])
    assert [r["a"] for r in cur] == [1, 2, 3, 4, 5]
    assert cur.fetch() == []              # iteration drained everything


@pytest.mark.parametrize("fault, error", [
    ("malformed row", SchemaError),
    ("table name", QueryError),
    ("closed stream", ExecutionError),
    ("late timestamp", QueryError),
])
def test_rejected_batch_moves_nothing(conn, fault, error):
    """The batch door is all-or-nothing on both transports: a refused
    batch leaves the cursor, the store, the counter and the clock where
    they were."""
    conn.create_stream("s", "a", "b")
    conn.create_table("t", "a", "b")
    cur = conn.submit("SELECT * FROM s")
    reply = conn.push_rows("s", [(0, 0)], timestamp=5)
    assert (reply["pushed"], reply["shed"]) == (1, 0)
    target, rows, ts = "s", [(1, 2), (3, 4), (5, 6)], None
    if fault == "malformed row":
        rows = [(1, 2), (3,), (5, 6)]
    elif fault == "table name":
        target = "t"
    elif fault == "closed stream":
        conn.close_stream("s")
    else:
        ts = 3
    with pytest.raises(error):
        conn.push_rows(target, rows, timestamp=ts)
    assert [r.timestamp for r in cur.fetch()] == [5]
    snap = conn.telemetry()
    assert snap.value("tcq_server_ingress_tuples_total", stream="s") == 1
    assert snap.value("tcq_server_store_size", stream="s") == 1
    if fault != "closed stream":
        conn.push_rows("s", [(7, 8)])
        assert [r.timestamp for r in cur.fetch()] == [6]


def test_windowed_query_same_windows(conn):
    conn.create_stream("s", "v")
    cur = conn.submit("""
        SELECT AVG(v) FROM s
        for (t = 2; t <= 4; t += 2) { WindowIs(s, t - 1, t); }""")
    assert cur.kind == "windowed"
    for i in range(1, 5):
        conn.push("s", float(i), timestamp=i)
    conn.close_stream("s")
    conn.run()
    windows = cur.fetch_windows()
    assert [(t, rows[0]["avg_v"]) for t, rows in windows] == \
        [(2, 1.5), (4, 3.5)]


def test_snapshot_query_over_table(conn):
    conn.create_table("emps", "name", "dept",
                      rows=[("ann", "eng"), ("bob", "ops"),
                            ("cat", "eng")])
    cur = conn.submit("SELECT name FROM emps WHERE dept = 'eng'")
    assert sorted(r["name"] for r in cur.fetchall()) == ["ann", "cat"]


def test_insert_into_stream_is_rejected(conn):
    conn.create_stream("s", "a")
    with pytest.raises(QueryError, match="use PUSH"):
        conn.insert("s", 1)


def test_explain_shape_is_identical(conn):
    conn.create_stream("s", "a")
    cur = conn.submit("SELECT * FROM s WHERE a > 3")
    plan = cur.explain()
    assert plan["kind"] == "continuous"
    assert isinstance(plan["operators"], list) and plan["operators"]


def test_cancel_then_push_delivers_nothing(conn):
    conn.create_stream("s", "a")
    cur = conn.submit("SELECT * FROM s")
    conn.push("s", 1)
    cur.cancel()
    conn.push("s", 2)
    # Cursor is closed; both transports treat further reads as local
    # drains of what was already buffered.
    assert len(conn.open_cursors()) == 0 if hasattr(conn, "open_cursors") \
        else True


def test_check_renders_identically_to_local(conn):
    conn.create_stream("trades", "sym", "price")
    report = conn.check(
        "SELECT * FROM trades WHERE price > 5 AND price < 3")
    local = LocalConnection()
    local.create_stream("trades", "sym", "price")
    want = local.check("SELECT * FROM trades WHERE price > 5 AND price < 3")
    assert report.render() == want.render()
    assert report.codes() == want.codes() == ["TCQ101"]
    local.close()


# ---------------------------------------------------------------------------
# the error taxonomy crosses the wire intact
# ---------------------------------------------------------------------------

QUERY_WITH_CONTRADICTION = \
    "SELECT * FROM trades WHERE price > 5 AND price < 3"


def test_plan_check_error_spans_survive_round_trip(conn):
    conn.create_stream("trades", "sym", "price")
    with pytest.raises(PlanCheckError) as exc:
        conn.submit(QUERY_WITH_CONTRADICTION)
    diag = exc.value.diagnostics[0]
    assert diag.code == "TCQ101"
    start, end = diag.span
    assert QUERY_WITH_CONTRADICTION[start:end] == "price < 3"
    # The caret rendering — file, line, source slice — is identical to
    # what the in-process engine produces.
    local = LocalConnection()
    local.create_stream("trades", "sym", "price")
    with pytest.raises(PlanCheckError) as local_exc:
        local.submit(QUERY_WITH_CONTRADICTION)
    assert [d.render() for d in exc.value.diagnostics] == \
        [d.render() for d in local_exc.value.diagnostics]
    local.close()


def test_parse_error_round_trip(conn):
    with pytest.raises(ParseError) as exc:
        conn.submit("SELEKT nope")
    local = LocalConnection()
    with pytest.raises(ParseError) as local_exc:
        local.submit("SELEKT nope")
    assert str(exc.value) == str(local_exc.value)
    local.close()


def test_query_error_round_trip(conn):
    with pytest.raises(QueryError, match="unknown"):
        conn.submit("SELECT * FROM no_such_stream")


def test_allow_unsafe_bypasses_plan_check(conn):
    conn.create_stream("trades", "sym", "price")
    # In-process the finding is also a warning in the caller's thread;
    # the service keeps it out of its own and sends the diagnostics.
    warned = pytest.warns(PlanCheckWarning, match="TCQ101") \
        if isinstance(conn, LocalConnection) else contextlib.nullcontext()
    with warned:
        cur = conn.submit(QUERY_WITH_CONTRADICTION, allow_unsafe=True)
    assert [d.code for d in cur.diagnostics] == ["TCQ101"]


# ---------------------------------------------------------------------------
# one meaning per factor: NULL, NaN and unorderable values
# ---------------------------------------------------------------------------

def _values(cursor):
    return [tuple(r.values) for r in cursor.fetch()]


def test_null_in_a_range_filtered_column_fails_the_factor(conn):
    conn.create_stream("S", "k", "v")
    cursor = conn.submit("SELECT * FROM S WHERE v > 5")
    assert conn.push_rows("S", [(0, 9), (1, None), (2, 7)])["pushed"] == 3
    conn.run()
    assert _values(cursor) == [(0, 9), (2, 7)]


def test_nan_fails_closed_range_factors():
    with LocalConnection() as conn:
        conn.create_stream("S", "k", "v")
        cursors = [conn.submit(f"SELECT * FROM S WHERE v {op} 5")
                   for op in (">=", "<=", ">", "<", "=", "!=")]
        conn.push_rows("S", [(0, float("nan")), (1, 5)])
        conn.run()
        got = [[k for k, _v in _values(c)] for c in cursors]
        assert got == [[1], [1], [], [], [1], [0]]


def test_null_fails_not_equal_on_continuous_and_windowed_plans(conn):
    conn.create_stream("S", "k", "v")
    continuous = conn.submit("SELECT * FROM S WHERE v != 5")
    windowed = conn.submit("SELECT * FROM S WHERE v != 5 "
                           "for (t = 1; t <= 4; t++) { WindowIs(S, t, t); }")
    # The fifth row moves the clock past the last window.
    conn.push_rows("S", [(0, None), (1, 6), (2, 5), (3, 1), (4, 5)],
                   timestamp=1)
    conn.run()
    assert _values(continuous) == [(1, 6), (3, 1)]
    assert [tuple(r.values) for _t, rows in windowed.fetch_windows()
            for r in rows] == [(1, 6), (3, 1)]


# ---------------------------------------------------------------------------
# a refused submit leaves no trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("query, message", [
    ("SELECT * FROM S a, S b WHERE a.k = b.k", "self-join"),
    ("SELECT * FROM S for (t = X; t <= 3; t++) { WindowIs(S, t, t); }",
     "unbound variables"),
    ("SELECT * FROM S WHERE v > 'a'", "str constant cannot be ordered "
                                      "against the int thresholds"),
])
def test_a_refused_submit_leaves_no_trace(conn, query, message):
    conn.create_stream("S", "k", "v")
    standing = conn.submit("SELECT * FROM S WHERE v > 5")

    def state():
        snap = conn.telemetry()
        return (conn.stats()["continuous_queries"],
                snap.value("tcq_server_open_cursors"))

    before = state()
    with pytest.raises(QueryError, match=message):
        conn.submit(query)
    assert state() == before == (1, 1)
    later = conn.submit("SELECT * FROM S WHERE v < 3")
    conn.push_rows("S", [(0, 9), (1, 1)])
    conn.run()
    assert _values(standing) == [(0, 9)]
    assert _values(later) == [(1, 1)]


def test_a_bridging_join_keeps_the_standing_joins_state(conn):
    """Admitting a join that bridges two standing joins' streams must
    not change their answers: the rows their SteMs hold stay there."""
    for name in ("S", "T", "U", "V"):
        conn.create_stream(name, "k", "v")
    st = conn.submit("SELECT * FROM S, T WHERE S.k = T.k")
    uv = conn.submit("SELECT * FROM U, V WHERE U.k = V.k")
    conn.push_rows("S", [(1, 10)])
    conn.push_rows("U", [(1, 30)])
    bridge = conn.submit("SELECT * FROM S, U WHERE S.k = U.k")
    conn.push_rows("T", [(1, 20)])
    conn.push_rows("V", [(1, 40)])
    conn.run()
    assert [(r["S.v"], r["T.v"]) for r in st.fetch()] == [(10, 20)]
    assert [(r["U.v"], r["V.v"]) for r in uv.fetch()] == [(30, 40)]
    assert bridge.fetch() == []


def test_push_rows_returns_pushed_and_shed_only(conn):
    conn.create_stream("S", "k", "v")
    assert conn.push_rows("S", [(0, 1), (1, 2)]) == {"pushed": 2, "shed": 0}


def test_on_result_is_in_process_only():
    service = TelegraphCQService(admin_port=None)
    service.run_in_thread()
    try:
        conn = connect(f"tcp://127.0.0.1:{service.port}")
        conn.create_stream("s", "a")
        with pytest.raises(ProtocolError, match="in-process"):
            conn.submit("SELECT * FROM s", on_result=lambda t: None)
        conn.close()
    finally:
        service.close()


# ---------------------------------------------------------------------------
# streaming rows decoded in the same read as a reply
# ---------------------------------------------------------------------------

class _ScriptedSocket:
    """Stands in for the TCP socket: ``recv`` hands out pre-encoded
    chunks exactly as scripted, ``sendall`` swallows requests."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def sendall(self, data):
        pass

    def recv(self, n):
        return self.chunks.pop(0) if self.chunks else b""

    def close(self):
        pass


def test_stream_rows_behind_a_reply_in_one_read_are_kept(monkeypatch):
    """One ``recv`` chunk shaped [STREAM-ROW, RESULT, STREAM-ROW,
    STREAM-ROW]: the two rows behind the reply used to be thrown away.
    Every row must reach the cursor, in production order (streamed
    before the reply, fetched by it, streamed after it)."""
    import socket

    from repro.client.connection import NetworkCursor
    from repro.core.tuples import Schema
    from repro.net.frames import (RESULT, STREAM_ROW, encode_frame,
                                  tuple_to_wire)

    schema = Schema.of("s", "a")

    def row(a):
        return tuple_to_wire(schema.make(a, timestamp=a))

    def streamed(a):
        return encode_frame({"type": STREAM_ROW, "cursor": 7, "row": row(a)})

    def result(rid, **fields):
        return encode_frame({"type": RESULT, "id": rid, **fields})

    sock = _ScriptedSocket([
        result(1, session=1),                                   # HELLO
        streamed(1) + result(2, rows=[row(2)]) + streamed(3) + streamed(4),
        result(3, rows=[row(5)]),
    ])
    monkeypatch.setattr(socket, "create_connection", lambda *a, **k: sock)
    conn = NetworkConnection("test.invalid", 0)
    cursor = NetworkCursor(conn, 7, "continuous", [], streaming=True)
    assert [t.values[0] for t in cursor.fetch()] == [1, 2]
    # The rows behind the reply were produced after it: the next request
    # hands them over ahead of what that request fetches.
    assert [t.values[0] for t in cursor.fetch()] == [3, 4, 5]
    assert not sock.chunks and not conn._pending
