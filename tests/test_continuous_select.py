"""Continuous cursors return what their SELECT list names.

A continuous query's results are the rows CACQ delivers to it -- its
stream's rows, or its join class's matches -- put through the query's
SELECT list: named columns are picked, ``*`` over a FROM order other
than the class's is reordered, and a query whose SELECT list is the
delivered row itself (``SELECT *`` over one stream) keeps the pull fast
path.  DISTINCT and ORDER BY need a window, as aggregates do.
"""

import pytest

import repro.monitor.tracing as tracing
from repro.client import LocalConnection, connect
from repro.errors import QueryError
from repro.monitor import introspect
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


def streams(conn):
    conn.create_stream("S", "k", "v")
    conn.create_stream("T", "k", "w")


def test_a_selection_returns_its_select_list(conn):
    streams(conn)
    one = conn.submit("SELECT v FROM S WHERE v > 0")
    two = conn.submit("SELECT v AS value, k FROM S WHERE v > 0")
    conn.push_rows("S", [(1, 5), (2, -1), (3, 6)])
    rows = one.fetch()
    assert [row.values for row in rows] == [(5,), (6,)]
    assert [row.schema.column_names() for row in rows] == [["v"]] * 2
    assert [row.timestamp for row in rows] == [1, 3]
    rows = two.fetch()
    assert [row.values for row in rows] == [(5, 1), (6, 3)]
    assert rows[0]["value"] == 5 and rows[0]["k"] == 1


def test_a_join_returns_its_select_list(conn):
    streams(conn)
    cursor = conn.submit("SELECT S.v, T.w FROM S, T WHERE S.k = T.k")
    conn.push_rows("S", [(1, 5)])
    conn.push_rows("T", [(1, 7)])
    conn.push_rows("S", [(1, 6)])
    rows = cursor.fetch()
    assert [row.values for row in rows] == [(5, 7), (6, 7)]
    assert {tuple(row.schema.column_names()) for row in rows} == \
        {("S.v", "T.w")}


def test_a_binding_star_returns_that_bindings_columns(conn):
    streams(conn)
    cursor = conn.submit("SELECT T.*, S.v FROM S, T WHERE S.k = T.k")
    conn.push_rows("T", [(1, 7)])
    conn.push_rows("S", [(1, 5)])
    (row,) = cursor.fetch()
    assert row.values == (1, 7, 5)
    assert row.schema.column_names() == ["T.k", "T.w", "S.v"]


@pytest.mark.parametrize("clause", ["SELECT DISTINCT v FROM S",
                                    "SELECT * FROM S ORDER BY v"])
def test_distinct_and_order_by_need_a_window(conn, clause):
    streams(conn)
    with pytest.raises(QueryError, match="for-loop window"):
        conn.submit(clause)


@pytest.mark.parametrize("sql", [
    "SELECT nope FROM S",
    "SELECT S.nope FROM S WHERE v > 0",
    "SELECT S.v, T.nope FROM S, T WHERE S.k = T.k",
])
def test_an_unknown_select_column_is_refused_at_submit(conn, sql):
    """Refused before the engine admits it: no query is left behind to
    raise on a later push, and no row is built into a SteM for it."""
    streams(conn)
    with pytest.raises(QueryError, match="unknown column"):
        conn.submit(sql)
    if isinstance(conn, LocalConnection):
        assert conn.server.open_cursors() == []
        assert not conn.server.cacq.queries
        assert not conn.server.cacq.stems
    good = conn.submit("SELECT S.v, T.w FROM S, T WHERE S.k = T.k")
    conn.push_rows("S", [(1, 5)])
    conn.push_rows("T", [(1, 7)])
    assert [row.values for row in good.fetch()] == [(5, 7)]


def test_a_push_cursor_gets_projected_rows():
    got = []
    with connect() as conn:
        streams(conn)
        conn.submit("SELECT w FROM S, T WHERE S.k = T.k",
                    on_result=got.append)
        conn.push_rows("T", [(1, 7), (2, 8)])
        conn.push_rows("S", [(2, 5)])
    assert [row.values for row in got] == [(8,)]


def test_select_star_over_one_stream_keeps_the_pull_fast_path():
    """The rows CACQ delivers are the query's results: no callback sits
    between the engine and the cursor's list."""
    with connect() as conn:
        streams(conn)
        star = conn.submit("SELECT * FROM S WHERE v > 0")
        picked = conn.submit("SELECT v FROM S WHERE v > 0")
        join = conn.submit("SELECT * FROM S, T WHERE S.k = T.k")
        reordered = conn.submit("SELECT * FROM T, S WHERE S.k = T.k")
        for cursor in (star, join):
            query = cursor.continuous_query
            assert query.callback is None
            assert query.results is cursor._results
        for cursor in (picked, reordered):
            assert cursor.continuous_query.callback is not None


def test_a_sampled_projected_row_closes_its_trace():
    tracing.configure_tracing(1)
    try:
        with connect() as conn:
            streams(conn)
            cursor = conn.submit("SELECT v FROM S WHERE v > 0")
            conn.push_rows("S", [(1, 5), (2, 6)])
            rows = cursor.fetch()
            report = conn.server.explain(cursor.cursor_id, analyze=True)
        assert [row.values for row in rows] == [(5,), (6,)]
        assert report["latency"]["count"] == 2
    finally:
        tracing.TRACER.configure(sample_every=0, capacity=256)
        tracing.TRACER.reset()
        introspect.RECORDER.configure(capacity=512, enabled=False)
        introspect.RECORDER.clear()
