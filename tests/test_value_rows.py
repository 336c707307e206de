"""Rows stay values until something stores them.

The door's batch, the historical store and CACQ's filter phase work on
value tuples, and every cursor hands back a value
:class:`~repro.core.tuples.Row`; a base row becomes a
:class:`~repro.core.tuples.Tuple` only where a SteM stores it, a join
probes with it, a sampled row or a pre-built row needs one.  These
guards count what is built (through the tuple id counter, no clocks)
and check that a row which does exist as a tuple is one object
everywhere it goes.  A windowed join builds each match's result once,
and every window that holds the match hands back that one object.
"""

import gc
from functools import partial

import pytest

import repro.monitor.tracing as tracing
from repro.client import connect
from repro.core import tuples
from repro.monitor.qos import LoadShedder

#: tcqbench ``firehose``'s shape: eight disjoint price bands.
BANDS = [(120 * k + 7, 120 * k + 57) for k in range(8)]


def firehose_rows(n):
    return [(f"S{i % 100:02d}", (37 * i) % 1000, (11 * i) % 100, i)
            for i in range(n)]


def tuple_ids_drawn(action):
    """How many :class:`Tuple` ids ``action()`` draws (one per tuple
    built; the probe itself takes one more)."""
    before = next(tuples._tuple_ids)
    action()
    return next(tuples._tuple_ids) - before - 1


def test_a_base_tuple_is_built_only_for_a_row_some_query_keeps():
    """On a selection-only stream no query stores a row, so none is
    built: every kept row is delivered as a value Row."""
    rows = firehose_rows(256)
    kept = [r for r in rows
            if any(a < r[1] < b and r[2] > 20 for a, b in BANDS)]
    assert 0 < len(kept) < len(rows) // 2
    with connect() as conn:
        # the idle shedder the network service installs reads no row
        conn.server.shed_with(LoadShedder())
        conn.create_stream("trades", "sym", "price", "vol", "seq")
        cursors = [conn.submit(f"SELECT * FROM trades WHERE price > {a} "
                               f"AND price < {b} AND vol > 20")
                   for a, b in BANDS]
        ids = tuple_ids_drawn(lambda: conn.push_rows("trades", rows))
        results = [t for cursor in cursors for t in cursor.fetch()]
    assert ids == 0
    assert {type(t) for t in results} == {tuples.Row}
    assert sorted(t.values for t in results) == sorted(kept)
    assert sorted(t.timestamp for t in results) == \
        [i + 1 for i, r in enumerate(rows) if r in kept]


WINDOWED_EQUIJOIN = (
    "SELECT {select} FROM a, b WHERE a.k = b.k AND a.v > 1 "
    "for (t = 4; t <= {last}; t++) {{ WindowIs(a, t - 3, t); "
    "WindowIs(b, t - 3, t); }}")


def feed_windowed_equijoin(conn, last):
    for ts in range(1, last + 2):
        conn.push_rows("a", [(ts % 3, ts), (ts % 2, -ts)], timestamp=2 * ts)
        conn.push_rows("b", [(ts % 3, ts)], timestamp=ts)
    conn.run()


@pytest.mark.parametrize("select", ["a.v, b.w", "*"])
def test_a_windowed_join_builds_only_the_rows_its_steMs_store(select):
    """Tuple ids = rows built into the plan's window SteMs, for 5
    windows as for 37: output rows (projected or ``*``) draw none."""
    built, outputs = {}, {}
    for last in (8, 40):
        with connect() as conn:
            conn.create_stream("a", "k", "v")
            conn.create_stream("b", "k", "w")
            cursor = conn.submit(WINDOWED_EQUIJOIN.format(select=select,
                                                          last=last))
            ids = tuple_ids_drawn(partial(feed_windowed_equijoin, conn, last))
            stems = cursor._windowed_state.plan._stems.values()
            windows = cursor.fetch_windows()
        assert len(windows) == last - 3
        assert ids == sum(stem.builds for stem in stems)
        rows = [row for _t, window in windows for row in window]
        assert {type(row) for row in rows} == {tuples.Row}
        built[last], outputs[last] = ids, len(rows)
    assert outputs[40] > 4 * outputs[8] > 0
    # The ids follow the rows stored, not the rows delivered.
    assert built[40] < 2 * outputs[40]


def windows_of_equijoin(select, last):
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        cursor = conn.submit(WINDOWED_EQUIJOIN.format(select=select,
                                                      last=last))
        feed_windowed_equijoin(conn, last)
        return cursor.fetch_windows()


@pytest.mark.parametrize("select", ["a.v, b.w", "*"])
def test_a_windowed_join_match_is_one_object_in_every_window(select):
    """Width 4, hop 1: a match sits in up to four windows, and every
    window that holds it hands back the same result object."""
    held = {}
    for _t, rows in windows_of_equijoin(select, 20):
        for row in rows:
            held.setdefault(row.values, []).append(row)
    assert max(len(rows) for rows in held.values()) == 4
    for rows in held.values():
        assert all(row is rows[0] for row in rows)


@pytest.mark.parametrize("select", ["a.v, b.w", "*"])
def test_a_windowed_join_builds_one_result_per_match(monkeypatch, select):
    """Result objects built = distinct matches, for 5 windows as for
    37, however many windows hold each match.  (``a.v`` and ``b.w`` are
    distinct per row, so a match's values name it.)"""
    init = tuples.Row.__init__
    for last in (8, 40):
        made = []

        def counted(self, *args, _made=made):
            _made.append(1)
            init(self, *args)

        monkeypatch.setattr(tuples.Row, "__init__", counted)
        windows = windows_of_equijoin(select, last)
        monkeypatch.undo()
        rows = [row for _t, window in windows for row in window]
        assert len(windows) == last - 3
        assert len(made) == len({row.values for row in rows}) \
            == len({id(row) for row in rows}) < len(rows)


def test_a_cacq_equijoin_builds_its_steM_rows_and_composite_matches():
    """A stream with a home SteM builds each kept row into it, and that
    is all: each match is delivered as a value Row, built as no tuple."""
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        join = conn.submit("SELECT * FROM a, b WHERE a.k = b.k")
        local = conn.submit("SELECT * FROM a WHERE v > 10")

        def drive():
            for ts in range(1, 41):
                conn.push_rows("a", [(ts % 5, ts)])
                conn.push_rows("b", [(ts % 4, ts)])

        ids = tuple_ids_drawn(drive)
        engine = conn.server.cacq
        builds = sum(stem.builds for stem in engine.stems.values())
        matches = sum(stem.matches_out for stem in engine.stems.values())
        joined, selected = join.fetch(), local.fetch()
    assert builds == 80 and matches > 0
    assert ids == builds
    assert len(joined) == matches
    assert all(t["a.k"] == t["b.k"] for t in joined)
    assert [t["v"] for t in selected] == list(range(11, 41))


def test_the_store_holds_no_collector_tracked_object_for_an_untraced_row():
    with connect() as conn:
        conn.create_stream("s", "k", "v")
        conn.submit("SELECT * FROM s WHERE v > 2")
        # lists: the door turns each into a value tuple of its own
        conn.push_rows("s", [[k, v] for k in range(4) for v in range(6)])
        store = conn.server.stores["s"]
        gc.collect()
        assert len(store) == 24
        assert not any(gc.is_tracked(v) for v in store._values)
        assert not store._built


@pytest.fixture
def every_third_row_traced():
    tracing.configure_tracing(3)
    tracing.TRACER.reset()
    yield
    tracing.configure_tracing(0)
    tracing.TRACER.reset()


def test_a_row_that_exists_as_a_tuple_is_one_object_everywhere(
        every_third_row_traced):
    """A sampled row and a ``push_tuple`` row: the store's scan, the
    window SteM and both cursors hand back the very same object."""
    with connect() as conn:
        conn.create_stream("s", "k", "v")
        live = conn.submit("SELECT * FROM s WHERE v > 0")
        windowed = conn.submit(
            "SELECT * FROM s for (t = 4; t <= 4; t++) { WindowIs(s, 1, t); }")
        srv = conn.server
        conn.push_rows("s", [(1, 1), (2, 2), (3, 3)])
        pre = srv.catalog.lookup("s").schema.make(4, 4, timestamp=4)
        conn.push_tuple("s", pre)
        conn.push_rows("s", [(5, 5)])         # the clock passes 4
        srv.run_until_quiescent()
        store = srv.stores["s"]
        stored = store.scan(1, 5)
        ones = [t for t in stored if t.trace is not None or t is pre]
        assert [(t.values, t.trace is None) for t in ones] == \
            [((3, 3), False), ((4, 4), True)]
        ((_t, window_rows),) = windowed.fetch_windows()
        stem = windowed._windowed_state.plan._stems["s"]
        live_rows = live.fetch()
        for one in ones:
            assert any(t is one for t in store.scan(1, 5))
            assert any(t is one for t in stem.contents())
            assert any(t is one for t in window_rows)
            assert any(t is one for t in live_rows)
