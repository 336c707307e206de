"""Rows stay values until a query keeps one.

The door's batch, the historical store and CACQ's filter phase work on
value tuples; a base row becomes a :class:`~repro.core.tuples.Tuple`
only where a survivor, a windowed scan, a sampled row or a pre-built row
needs one.  These guards count what is built (through the tuple id
counter, no clocks) and check that a row which does exist as a tuple is
one object everywhere it goes.
"""

import gc

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


def test_a_base_tuple_is_built_only_for_a_row_some_query_keeps():
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
        before = next(tuples._tuple_ids)
        conn.push_rows("trades", rows)
        ids = next(tuples._tuple_ids) - before - 1
        results = [t for cursor in cursors for t in cursor.fetch()]
    # One id per kept row (its tuple, delivered as itself) and none for
    # a dropped one.  ``stamp_arrival`` takes one id per pre-built row
    # built into a home SteM; these rows are neither pre-built nor is
    # there a SteM on a selection-only stream, so it takes none.
    assert ids == len(kept)
    assert sorted(t.values[-1] for t in results) == [r[-1] for r in kept]


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
