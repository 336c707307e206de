"""One Ingress door.

Every way a tuple can enter the system — the server's ``push_rows`` /
``push`` / ``push_tuple`` from either transport, a :class:`SourceModule`
and a :class:`Streamer` — funnels through
:class:`repro.ingress.ingress.IngressPoint`: same admission counters,
same shedding hook, same trace attachment, one batch handed to the
consumer.
"""

import asyncio

import pytest

from repro.core.tuples import Schema
from repro.ingress.ingress import IngressPoint
from repro.ingress.wrappers import Streamer
from repro.monitor.qos import LoadShedder
import repro.monitor.tracing as tracing


SCHEMA = Schema.of("s", "a")


def make_tuples(n):
    return [SCHEMA.make(i, timestamp=i + 1) for i in range(n)]


# ---------------------------------------------------------------------------
# the IngressPoint itself
# ---------------------------------------------------------------------------

def test_admit_one_delivers_and_counts():
    got = []
    point = IngressPoint("p", deliver=got.extend)
    for t in make_tuples(3):
        assert point.admit_one(t)
    assert point.accepted == 3 and point.shed == 0
    assert [t["a"] for t in got] == [0, 1, 2]


def test_admit_batch_returns_accepted_count():
    got = []
    point = IngressPoint("p", deliver=got.extend)
    assert point.admit(make_tuples(5)) == 5
    assert len(got) == 5


def test_store_sees_every_admitted_tuple():
    store = []
    point = IngressPoint("p", deliver=lambda t: None, store=store)
    point.admit(make_tuples(4))
    assert len(store) == 4


def test_assign_timestamps_fills_missing_only():
    got = []
    point = IngressPoint("p", deliver=got.extend, assign_timestamps=True)
    fresh = SCHEMA.make(7)             # no timestamp
    pinned = SCHEMA.make(8, timestamp=99)
    point.admit([fresh, pinned])
    assert got[0].timestamp is not None
    assert got[1].timestamp == 99


def test_shedder_drops_are_counted_not_delivered():
    got = []
    shedder = LoadShedder(policy="random", seed=1)
    # Teach the shedder it is badly overloaded.
    for _ in range(5):
        shedder.update(arrived=100, serviced=10)
    point = IngressPoint("p", deliver=got.extend, shedder=shedder)
    admitted = point.admit(make_tuples(100))
    assert admitted == len(got)
    assert point.shed == 100 - admitted
    assert 0 < admitted < 100


def test_trace_attachment_is_idempotent():
    tracer = tracing.TRACER
    old = tracer.sample_every
    tracer.configure(sample_every=1)
    try:
        t = SCHEMA.make(1, timestamp=1)
        second = IngressPoint("second-door", deliver=lambda batch: None)
        first = IngressPoint("first-door", deliver=second.admit)
        first.admit([t])
        assert t.trace is not None and t.trace.source == "first-door", \
            "re-admission must not restart the trace"
    finally:
        tracer.configure(sample_every=old)


# ---------------------------------------------------------------------------
# the four doors
# ---------------------------------------------------------------------------

def test_server_push_goes_through_an_ingress_point():
    from repro.client import LocalConnection
    conn = LocalConnection()
    conn.create_stream("s", "a")
    cur = conn.submit("SELECT * FROM s")
    conn.push("s", 1)
    conn.push("s", 2)
    point = conn.server.ingress["s"]
    assert isinstance(point, IngressPoint)
    assert point.accepted == 2
    assert len(cur.fetch()) == 2
    conn.close()


def test_streamer_is_an_ingress_point():
    from repro.fjords.queues import PushQueue
    streamer = Streamer("s")
    q = PushQueue()
    streamer.attach_queue(q)
    streamer.deliver(make_tuples(3))
    assert isinstance(streamer.point, IngressPoint)
    assert streamer.delivered == 3
    assert streamer.point.accepted == 3
    assert len(q) == 3


def test_source_module_is_an_ingress_point():
    from repro.fjords.fjord import Fjord
    from repro.fjords.module import CollectingSink
    from tests.conftest import ListFeed

    feed = ListFeed(make_tuples(4))
    sink = CollectingSink()
    fjord = Fjord()
    fjord.connect(feed, sink)
    fjord.run_until_finished()
    assert isinstance(feed.point, IngressPoint)
    assert feed.point.accepted == 4
    from repro.core.tuples import Tuple
    assert len([i for i in sink.log if isinstance(i, Tuple)]) == 4


def test_admit_hands_the_consumer_one_batch():
    batches = []
    point = IngressPoint("p", deliver=batches.append)
    point.admit(make_tuples(3))
    point.admit([])
    assert [len(b) for b in batches] == [3]


def test_refused_batch_moves_nothing():
    from repro.core.windows import HistoricalStore
    from repro.errors import QueryError
    store, got = HistoricalStore("s"), []
    point = IngressPoint("p", deliver=got.extend, store=store)
    point.admit(make_tuples(2))
    late = [SCHEMA.make(7, timestamp=5), SCHEMA.make(8, timestamp=1)]
    with pytest.raises(QueryError):
        point.admit(late)
    assert len(store) == 2 and len(got) == 2
    assert point.accepted == 2 and point.shed == 0


@pytest.mark.parametrize("bad, message", [
    ((5,), r"row 2: expected 2 values, got 1"),
    ((5, 6, 7), r"row 2: expected 2 values, got 3"),
    (("five", 6), r"row 2: column 'a' expects int, got str"),
])
def test_a_malformed_row_rejects_the_whole_batch_before_anything_moves(
        bad, message):
    """All or nothing survives the batch constructor: the bad row sits
    behind two good ones, and neither the store, the stream clock, the
    point's counters nor any CACQ counter sees the batch."""
    from repro.client import LocalConnection
    from repro.core.tuples import Column
    from repro.errors import SchemaError
    conn = LocalConnection()
    conn.create_stream(Schema([Column("a", int), Column("b")], name="s"))
    cur = conn.submit("SELECT * FROM s WHERE a > 0")
    conn.push_rows("s", [(1, None), (2, "x")])
    srv = conn.server
    engine = srv.cacq
    gf = engine.filters[("s", "a")]

    def state():
        return (len(srv.stores["s"]), srv.ingress["s"].clock,
                srv.ingress["s"].accepted, srv.ingress["s"].shed,
                engine.stats(), gf.probes, gf.seen, gf.passed_count)

    before = state()
    with pytest.raises(SchemaError, match=message):
        conn.push_rows("s", [(3, 0), (4, 0), bad, (6, 0)])
    assert state() == before
    assert [t.values for t in cur.fetch()] == [(1, None), (2, "x")]
    # ... and the door still works, continuing the clock where it was.
    # (a bool is an int: dtypes are checked per kind of value)
    conn.push_rows("s", [(True, 0), (7, None)])
    assert [t.timestamp for t in srv.stores["s"].scan(0, 10)] == [1, 2, 3, 4]
    conn.close()


class KeepFirstHalf:
    """A duck-typed shedder: while on, keeps the first half of a batch."""

    def __init__(self):
        self.on = True

    def admit(self, batch):
        return batch[:len(batch) // 2] if self.on else batch


def test_shed_rows_keep_their_stamps_and_move_the_stream_clock():
    """The door stamps every row it is offered, shed or not: a later
    push continues after the shed rows' stamps, a fully shed batch moves
    the clock too, and a window whose right end a shed tail passed
    fires."""
    from repro.client import connect
    shedder = KeepFirstHalf()
    with connect() as conn:
        conn.create_stream("s", "a")
        srv = conn.server
        srv.shed_with(shedder)
        cur = conn.submit("SELECT * FROM s for (t = 1; t <= 5; t++) "
                          "{ WindowIs(s, t, t); }")
        assert conn.push_rows("s", [(0,), (1,), (2,), (3,)]) == \
            {"pushed": 2, "shed": 2}
        srv.run_until_quiescent()
        assert [(t, [r.values for r in rows])
                for t, rows in cur.fetch_windows()] == \
            [(1, [(0,)]), (2, [(1,)]), (3, [])]
        assert conn.push_rows("s", [(9,)]) == {"pushed": 0, "shed": 1}
        srv.run_until_quiescent()
        assert cur.fetch_windows() == [(4, [])]
        shedder.on = False
        conn.push_rows("s", [(10,), (11,), (12,), (13,)])
        assert [(t.values, t.timestamp) for t in srv.stores["s"].scan(0, 99)] \
            == [((0,), 1), ((1,), 2), ((10,), 6), ((11,), 7), ((12,), 8),
                ((13,), 9)]
        point = srv.ingress["s"]
        assert (point.accepted, point.shed, point.clock) == (6, 3, 9)


def test_network_push_is_the_fourth_door():
    """A wire PUSH lands on the server's own per-stream point, once:
    counted there, shed there, traced there."""
    from repro.net.aioclient import AsyncFrameClient
    from repro.net.service import TelegraphCQService

    async def scenario():
        service = TelegraphCQService(admin_port=None)
        await service.start()
        tracer = tracing.TRACER
        old = tracer.sample_every
        tracer.configure(sample_every=1)
        try:
            c = AsyncFrameClient("127.0.0.1", service.port)
            await c.connect(client="c")
            await c.request("DDL", action="create_stream", name="s",
                            columns=["a"])
            reply = await c.request("PUSH", stream="s",
                                    rows=[[1], [2], [3]])
            assert (reply["pushed"], reply["shed"]) == (3, 0)
            point = service.server.ingress["s"]
            assert point.accepted == 3 and point.shed == 0
            assert point.shedder is service.shedder
            assert not hasattr(service, "_net_ingress")
            stored = service.server.stores["s"].scan(0, 10)
            assert [t.timestamp for t in stored] == [1, 2, 3]
            traces = [t.trace for t in stored]
            assert all(tr is not None for tr in traces)
            assert len({id(tr) for tr in traces}) == 3
            assert all([h.kind for h in tr.hops].count("ingress") == 1
                       for tr in traces)
            # Overload: the same point counts what the wire sheds.
            for _ in range(5):
                service.shedder.update(arrived=100, serviced=10)
            reply = await c.request("PUSH", stream="s",
                                    rows=[[i] for i in range(100)])
            assert reply["pushed"] + reply["shed"] == 100
            assert 0 < reply["shed"] < 100
            assert point.shed == reply["shed"]
            assert point.accepted == 3 + reply["pushed"]
            snap = service.server.telemetry()
            assert snap.value("tcq_net_push_shed_total") == point.shed
            assert snap.value("tcq_server_ingress_tuples_total",
                              stream="s") == point.accepted
            await c.close()
        finally:
            tracer.configure(sample_every=old)
            await service.stop()

    asyncio.run(scenario())
