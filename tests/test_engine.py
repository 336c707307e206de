"""End-to-end tests of the TelegraphCQ server (Figure 5): DDL, ingress,
all three query kinds, cursors/proxies, dynamic add/remove, and the
paper's §4.1 examples through the full SQL path."""

import pytest

from repro.analysis.report import PlanCheckWarning
from repro.core.engine import TelegraphCQServer
from repro.core.tuples import Schema
from repro.errors import ExecutionError, QueryError
from repro.ingress.generators import CLOSING_STOCK_PRICES

TRADES = Schema.of("trades", "sym", "price")


def stock_server(days=20, symbols=("MSFT", "IBM")):
    """Server + deterministic stock data: MSFT=45+day, IBM=50."""
    srv = TelegraphCQServer()
    srv.create_stream(CLOSING_STOCK_PRICES)
    for day in range(1, days + 1):
        for sym in symbols:
            price = 45.0 + day if sym == "MSFT" else 50.0
            srv.push("ClosingStockPrices", day, sym, price, timestamp=day)
            srv.step()
    return srv


class TestDDLAndIngress:
    def test_create_and_push(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.push("trades", "A", 10.0)
        assert srv.stats()["ingested"] == 1

    def test_push_to_table_rejected(self):
        srv = TelegraphCQServer()
        srv.create_table(TRADES, [("A", 1.0)])
        with pytest.raises(QueryError, match="is a table"):
            srv.push("trades", "B", 2.0)

    def test_push_to_closed_stream_rejected(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.close_stream("trades")
        with pytest.raises(ExecutionError, match="closed"):
            srv.push("trades", "A", 1.0)

    def test_auto_timestamps_monotone(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.push("trades", "A", 1.0)
        srv.push("trades", "B", 2.0)
        store = srv.stores["trades"]
        assert [t.timestamp for t in store.scan(0, 100)] == [1, 2]


class TestContinuousQueries:
    def test_selection_cq(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cur = srv.submit("SELECT * FROM trades WHERE price > 10")
        srv.push("trades", "A", 20.0)
        srv.push("trades", "B", 5.0)
        assert len(cur.fetch()) == 1

    def test_join_cq(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.create_stream(Schema.of("quotes", "sym", "bid"))
        cur = srv.submit(
            "SELECT * FROM trades, quotes WHERE trades.sym = quotes.sym")
        srv.push("trades", "A", 20.0)
        srv.push("quotes", "A", 19.0)
        results = cur.fetch()
        assert len(results) == 1
        assert results[0].sources == frozenset({"trades", "quotes"})

    def test_push_mode_callback(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        got = []
        srv.submit("SELECT * FROM trades WHERE price > 0",
                   on_result=got.append)
        srv.push("trades", "A", 1.0)
        assert len(got) == 1

    def test_cancel_stops_delivery(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cur = srv.submit("SELECT * FROM trades WHERE price > 0")
        srv.push("trades", "A", 1.0)
        srv.cancel(cur)
        srv.push("trades", "A", 2.0)
        assert len(cur.fetch()) == 1
        assert cur.closed

    def test_hundred_queries_share_engine(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cursors = [srv.submit(f"SELECT * FROM trades WHERE price > {i}")
                   for i in range(64)]
        # Past the advisory lineage capacity: admitted, with TCQ205 once.
        with pytest.warns(PlanCheckWarning, match="TCQ205") as caught:
            cursors += [
                srv.submit(f"SELECT * FROM trades WHERE price > {i}")
                for i in range(64, 100)]
        assert len(caught) == 1
        srv.push("trades", "A", 1000.0)
        assert all(len(c.fetch()) == 1 for c in cursors)
        assert len(srv.cacq.queries) == 100

    def test_disjoint_streams_share_the_engine_not_their_rows(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.create_stream(Schema.of("sensors", "sid", "temp"))
        on_trades = srv.submit("SELECT * FROM trades WHERE price > 0")
        on_sensors = srv.submit("SELECT * FROM sensors WHERE temp > 0")
        srv.push("trades", "A", 1.0)
        assert len(on_trades.fetch()) == 1
        assert on_sensors.fetch() == []
        assert srv.cacq.filters[("sensors", "temp")].probes == 0

    def test_bridging_join_needs_no_merge_and_keeps_queries_live(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.create_stream(Schema.of("quotes", "sym", "bid"))
        c1 = srv.submit("SELECT * FROM trades WHERE price > 0")
        c2 = srv.submit("SELECT * FROM quotes WHERE bid > 0")
        c3 = srv.submit(
            "SELECT * FROM trades, quotes WHERE trades.sym = quotes.sym")
        assert [d.code for d in c3.diagnostics] == []
        srv.push("trades", "A", 1.0)
        srv.push("quotes", "A", 2.0)
        assert len(c1.fetch()) == 1
        assert len(c2.fetch()) == 1
        assert len(c3.fetch()) == 1

    def test_cancel_after_a_bridging_join(self):
        """Cancelling one query after a bridging join stops delivery for
        it alone while the other queries keep running."""
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.create_stream(Schema.of("quotes", "sym", "bid"))
        c1 = srv.submit("SELECT * FROM trades WHERE price > 0")
        c2 = srv.submit("SELECT * FROM quotes WHERE bid > 0")
        c3 = srv.submit(
            "SELECT * FROM trades, quotes WHERE trades.sym = quotes.sym")
        srv.cancel(c1)
        assert c1.closed and c1.continuous_query is None
        srv.push("trades", "A", 1.0)
        srv.push("quotes", "A", 2.0)
        assert c1.fetch() == []
        assert len(c2.fetch()) == 1
        assert len(c3.fetch()) == 1

    def test_resubmit_after_cancel_across_a_bridging_join(self):
        """Cancel/resubmit around a bridging join: the resubmitted query
        sees new data and the cancelled one does not."""
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.create_stream(Schema.of("quotes", "sym", "bid"))
        c1 = srv.submit("SELECT * FROM trades WHERE price > 0")
        srv.submit(
            "SELECT * FROM trades, quotes WHERE trades.sym = quotes.sym")
        srv.cancel(c1)
        c1b = srv.submit("SELECT * FROM trades WHERE price > 0")
        srv.push("trades", "A", 3.0)
        assert c1.fetch() == []
        assert len(c1b.fetch()) == 1

    def test_continuous_aggregate_rejected(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        with pytest.raises(QueryError, match="for-loop"):
            srv.submit("SELECT AVG(price) FROM trades")


class TestSnapshotQueries:
    def test_table_scan_filter_project(self):
        srv = TelegraphCQServer()
        srv.create_table(Schema.of("emps", "name", "salary"),
                         [("a", 10), ("b", 30)])
        cur = srv.submit("SELECT name FROM emps WHERE salary > 20")
        rows = cur.fetch()
        assert [r["name"] for r in rows] == ["b"]
        assert cur.closed

    def test_snapshot_join_two_tables(self):
        srv = TelegraphCQServer()
        srv.create_table(Schema.of("emps", "name", "dept"),
                         [("a", "x"), ("b", "y")])
        srv.create_table(Schema.of("depts", "dept", "floor"),
                         [("x", 1), ("y", 2)])
        cur = srv.submit("SELECT * FROM emps, depts "
                         "WHERE emps.dept = depts.dept")
        assert len(cur.fetch()) == 2


class TestWindowedQueries:
    def test_landmark_paper_example(self):
        srv = stock_server(days=20)
        cur = srv.submit("""
            SELECT closingPrice, timestamp
            FROM ClosingStockPrices
            WHERE stockSymbol = 'MSFT' and closingPrice > 50.00
            for (t = 5; t <= 15; t++) {
                WindowIs(ClosingStockPrices, 5, t);
            }""")
        srv.run_until_quiescent()
        windows = cur.fetch_windows()
        assert len(windows) == 11
        sizes = [len(rows) for _t, rows in windows]
        assert sizes == sorted(sizes)

    def test_sliding_avg_with_st_binding(self):
        srv = stock_server(days=20, symbols=("MSFT",))
        cur = srv.submit("""
            Select AVG(closingPrice)
            From ClosingStockPrices
            Where stockSymbol = 'MSFT'
            for (t = ST; t < ST + 10; t += 5) {
                WindowIs(ClosingStockPrices, t - 4, t);
            }""", env={"ST": 5})
        srv.run_until_quiescent()
        windows = cur.fetch_windows()
        assert [rows[0]["avg_closingPrice"] for _t, rows in windows] == \
            [48.0, 53.0]

    def test_windows_wait_for_data(self):
        """A window fires only when its right end is strictly in the
        past (or the stream closed)."""
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        cur = srv.submit("""
            SELECT * FROM ClosingStockPrices
            for (t = 1; t <= 3; t++) {
                WindowIs(ClosingStockPrices, t, t);
            }""")
        srv.push("ClosingStockPrices", 1, "MSFT", 1.0, timestamp=1)
        srv.run_until_quiescent()
        assert cur.fetch_windows() == []           # clock == 1, not past
        srv.push("ClosingStockPrices", 2, "MSFT", 1.0, timestamp=2)
        srv.run_until_quiescent()
        assert len(cur.fetch_windows()) == 1       # window t=1 fired
        srv.close_stream("ClosingStockPrices")
        srv.run_until_quiescent()
        assert len(cur.fetch_windows()) == 2       # the rest fired

    def test_band_join_self_aliases(self):
        srv = stock_server(days=10)
        cur = srv.submit("""
            Select c2.*
            FROM ClosingStockPrices as c1, ClosingStockPrices as c2
            WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT'
              and c2.closingPrice > c1.closingPrice
              and c2.timestamp = c1.timestamp
            for (t = 5; t < 8; t++) {
                WindowIs(c1, t - 4, t);
                WindowIs(c2, t - 4, t);
            }""")
        srv.close_stream("ClosingStockPrices")
        srv.run_until_quiescent()
        windows = cur.fetch_windows()
        # IBM (50) beats MSFT (45+day) only while day < 5.
        assert [len(rows) for _t, rows in windows] == [4, 3, 2]

    def test_backward_window(self):
        srv = stock_server(days=10, symbols=("MSFT",))
        cur = srv.submit("""
            SELECT timestamp FROM ClosingStockPrices
            for (t = 9; t > 5; t--) {
                WindowIs(ClosingStockPrices, t - 1, t);
            }""")
        srv.run_until_quiescent()
        windows = cur.fetch_windows()
        assert [sorted(r["timestamp"] for r in rows)
                for _t, rows in windows] == [[8, 9], [7, 8], [6, 7], [5, 6]]


class TestCursorsAndProxies:
    def test_fetch_limit(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cur = srv.submit("SELECT * FROM trades WHERE price > 0")
        for i in range(5):
            srv.push("trades", "A", float(i + 1))
        assert len(cur.fetch(limit=2)) == 2
        assert len(cur.fetch()) == 3

    def test_proxy_overflow_opens_new_proxy(self):
        srv = TelegraphCQServer(max_cursors_per_proxy=2)
        srv.create_stream(TRADES)
        for i in range(5):
            srv.submit("SELECT * FROM trades WHERE price > 0",
                       client="alice")
        assert srv.stats()["proxies"]["alice"] == 3

    def test_closed_cursors_leave_their_proxy_under_churn(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        keeper = srv.submit("SELECT * FROM trades WHERE price > 0")
        delivered = 0
        for i in range(100):
            cur = srv.submit("SELECT * FROM trades WHERE price > 0")
            srv.push("trades", "A", float(i + 1))
            delivered += 2
            assert srv.find_cursor(cur.cursor_id) is cur
            cur.close()
            with pytest.raises(QueryError):
                srv.find_cursor(cur.cursor_id)
            # The retired cursor's results stay counted (monotonic).
            assert srv.telemetry().value(
                "tcq_server_egress_tuples_total") == delivered
        (proxy,) = srv._proxies["default"]
        assert proxy.cursors == [keeper] and proxy.has_room
        assert srv.open_cursors() == [keeper]
        assert srv.stats()["proxies"] == {"default": 1}
        keeper.close()
        assert srv.stats()["proxies"] == {} and srv.open_cursors() == []

    def test_cancel_stops_a_windowed_cursor_too(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cur = srv.submit("""
            SELECT * FROM trades
            for (t = 1; t <= 3; t++) { WindowIs(trades, t, t); }""")
        srv.cancel(cur)
        for i in range(5):
            srv.push("trades", "A", float(i + 1))
        srv.run_until_quiescent()
        assert cur.closed and cur.fetch_windows() == []

    def test_clients_have_separate_proxies(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        srv.submit("SELECT * FROM trades WHERE price > 0", client="a")
        srv.submit("SELECT * FROM trades WHERE price > 0", client="b")
        assert set(srv.stats()["proxies"]) == {"a", "b"}

    def test_pending_counts(self):
        srv = TelegraphCQServer()
        srv.create_stream(TRADES)
        cur = srv.submit("SELECT * FROM trades WHERE price > 0")
        srv.push("trades", "A", 1.0)
        assert cur.pending() == 1
        cur.fetch()
        assert cur.pending() == 0


class TestStreamTableWindowedJoin:
    """Section 4.1.1: 'an input without a corresponding WindowIs
    statement is assumed to be a static table by default'."""

    def test_stream_windowed_against_static_table(self):
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        srv.create_table(Schema.of("sectors", "stockSymbol", "sector"),
                         [("MSFT", "tech"), ("IBM", "tech")])
        cur = srv.submit("""
            SELECT * FROM ClosingStockPrices, sectors
            WHERE ClosingStockPrices.stockSymbol = sectors.stockSymbol
            for (t = 2; t <= 4; t++) {
                WindowIs(ClosingStockPrices, t, t);
            }""")
        for day in range(1, 6):
            for sym in ("MSFT", "IBM", "XOM"):
                srv.push("ClosingStockPrices", day, sym, 50.0,
                         timestamp=day)
            srv.step()
        srv.close_stream("ClosingStockPrices")
        srv.run_until_quiescent()
        windows = cur.fetch_windows()
        # each single-day window joins its 3 rows against the 2-row
        # table on symbol: MSFT and IBM match, XOM does not
        assert [len(rows) for _t, rows in windows] == [2, 2, 2]
        assert all(r["sector"] == "tech"
                   for _t, rows in windows for r in rows)

    def test_stream_without_windowis_rejected(self):
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        srv.create_stream(Schema.of("other", "stockSymbol", "v"))
        with pytest.raises(QueryError, match="without a WindowIs"):
            srv.submit("""
                SELECT * FROM ClosingStockPrices, other
                WHERE ClosingStockPrices.stockSymbol = other.stockSymbol
                for (t = 1; t <= 3; t++) {
                    WindowIs(ClosingStockPrices, t, t);
                }""")
