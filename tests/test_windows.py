"""Tests for window semantics: the paper's four example queries (§4.1),
every ForLoopSpec constructor, and HistoricalStore."""

import pytest

from repro.client import connect
from repro.core.windows import ForLoopSpec, HistoricalStore, WindowIs
from repro.errors import QueryError
from repro.ingress.generators import CLOSING_STOCK_PRICES

S = CLOSING_STOCK_PRICES


def stock_store(days=30, symbols=("MSFT", "IBM")):
    """Deterministic prices: MSFT climbs 46,47,..., IBM flat at 50."""
    store = HistoricalStore("ClosingStockPrices")
    for day in range(1, days + 1):
        for sym in symbols:
            price = 45.0 + day if sym == "MSFT" else 50.0
            store.append(S.make(day, sym, price, timestamp=day))
    return store


class TestForLoopConstructors:
    def test_snapshot_single_iteration(self):
        spec = ForLoopSpec.snapshot("s", 1, 5)
        instances = list(spec)
        assert len(instances) == 1
        assert instances[0].bounds_for("s") == (1, 5)

    def test_landmark_fixed_left_moving_right(self):
        spec = ForLoopSpec.landmark("s", anchor=101, start=101, stop=105)
        bounds = [i.bounds_for("s") for i in spec]
        assert bounds == [(101, 101), (101, 102), (101, 103),
                          (101, 104), (101, 105)]

    def test_sliding_unit_hop(self):
        spec = ForLoopSpec.sliding("s", width=3, start=3, stop=6)
        assert [i.bounds_for("s") for i in spec] == \
            [(1, 3), (2, 4), (3, 5)]

    def test_hopping_window(self):
        spec = ForLoopSpec.sliding("s", width=5, start=5, stop=20, hop=5)
        assert [i.bounds_for("s") for i in spec] == \
            [(1, 5), (6, 10), (11, 15)]

    def test_backward_window(self):
        spec = ForLoopSpec.backward("s", width=3, start=10, stop=6, hop=2)
        assert [i.bounds_for("s") for i in spec] == \
            [(8, 10), (6, 8), (4, 6)]

    def test_band_spans_streams_in_unison(self):
        spec = ForLoopSpec.band(["c1", "c2"], width=5, start=10, stop=12)
        first = next(iter(spec))
        assert first.bounds_for("c1") == first.bounds_for("c2") == (6, 10)

    def test_duplicate_windowis_rejected(self):
        with pytest.raises(QueryError, match="duplicate"):
            ForLoopSpec(0, lambda t: t < 1, lambda t: t + 1,
                        [WindowIs("s", lambda t: t, lambda t: t),
                         WindowIs("s", lambda t: t, lambda t: t)])

    def test_empty_windows_rejected(self):
        with pytest.raises(QueryError):
            ForLoopSpec(0, lambda t: True, lambda t: t + 1, [])

    def test_max_iterations_caps_infinite_loops(self):
        spec = ForLoopSpec(0, lambda t: True, lambda t: t + 1,
                           [WindowIs("s", lambda t: t, lambda t: t)],
                           max_iterations=7)
        assert len(list(spec)) == 7

    def test_bad_width_rejected(self):
        with pytest.raises(QueryError):
            ForLoopSpec.sliding("s", width=0, start=1, stop=5)


class TestHistoricalStore:
    def test_scan_inclusive_bounds(self):
        store = stock_store(days=10, symbols=("MSFT",))
        assert [t.timestamp for t in store.scan(3, 5)] == [3, 4, 5]

    def test_scan_empty_range(self):
        store = stock_store(days=5, symbols=("MSFT",))
        assert store.scan(100, 200) == []

    def test_out_of_order_append_rejected(self):
        store = HistoricalStore("s")
        store.append(S.make(5, "MSFT", 1.0, timestamp=5))
        with pytest.raises(QueryError, match="out-of-order"):
            store.append(S.make(3, "MSFT", 1.0, timestamp=3))

    def test_missing_timestamp_rejected(self):
        store = HistoricalStore("s")
        with pytest.raises(QueryError):
            store.append(S.make(1, "MSFT", 1.0))

    def test_truncate_before(self):
        store = stock_store(days=10, symbols=("MSFT",))
        dropped = store.truncate_before(6)
        assert dropped == 5
        assert len(store) == 5
        assert store.scan(1, 100)[0].timestamp == 6

    def test_latest_timestamp(self):
        assert HistoricalStore("s").latest_timestamp() is None
        assert stock_store(days=3).latest_timestamp() == 3


class PaperExamples:
    """Namespace marker — the four §4.1 queries, submitted through the
    door as written in the paper and answered by the server's one
    window evaluator over the stream's history."""


def stock_windows(sql, days=30, symbols=("MSFT", "IBM")):
    """``sql``'s windows over the deterministic price history."""
    with connect() as conn:
        conn.create_stream(S)
        for day in range(1, days + 1):
            for sym in symbols:
                conn.push(S.name, day, sym,
                          45.0 + day if sym == "MSFT" else 50.0,
                          timestamp=day)
        conn.close_stream(S.name)
        cursor = conn.submit(sql)
        conn.run()
        return cursor.fetch_windows()


class TestPaperExample1Snapshot:
    def test_first_five_days_of_msft(self):
        """'Select the closing prices for MSFT on the first five days of
        trading' — for(; t==0; t=-1) WindowIs(CSP, 1, 5)."""
        results = stock_windows(
            "SELECT closingPrice, timestamp FROM ClosingStockPrices "
            "WHERE stockSymbol = 'MSFT' "
            "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }")
        assert len(results) == 1
        _t, rows = results[0]
        assert [t.timestamp for t in rows] == [1, 2, 3, 4, 5]
        assert [t["closingPrice"] for t in rows] == [46.0, 47.0, 48.0,
                                                     49.0, 50.0]


class TestPaperExample2Landmark:
    def test_days_msft_above_50_after_anchor(self):
        """Landmark: fixed left end, right end sweeping; the answer for
        iteration t is a superset of iteration t-1 (monotone growth)."""
        results = stock_windows(
            "SELECT closingPrice, timestamp FROM ClosingStockPrices "
            "WHERE stockSymbol = 'MSFT' AND closingPrice > 50.0 "
            "for (t = 5; t <= 30; t++) { WindowIs(ClosingStockPrices, 5, t); }")
        sizes = [len(rows) for _t, rows in results]
        assert sizes == sorted(sizes)           # landmark grows monotonically
        # MSFT price is 45+day: > 50 from day 6 on.
        assert sizes[-1] == 30 - 6 + 1
        assert [t.timestamp for t in results[-1][1]] == list(range(6, 31))


class TestPaperExample3SlidingAvg:
    def test_five_day_average_every_fifth_day(self):
        results = stock_windows(
            "SELECT AVG(closingPrice) FROM ClosingStockPrices "
            "WHERE stockSymbol = 'MSFT' "
            "for (t = 5; t < 30; t += 5) { "
            "WindowIs(ClosingStockPrices, t - 4, t); }",
            symbols=("MSFT",))
        averages = [rows[0]["avg_closingPrice"] for _t, rows in results]
        # days d-4..d with price 45+day: average = 45 + d - 2
        assert averages == [48.0, 53.0, 58.0, 63.0, 68.0]


class TestPaperExample4BandJoin:
    def test_stocks_closing_higher_than_msft(self):
        results = stock_windows(
            "SELECT c2.* FROM ClosingStockPrices AS c1, "
            "ClosingStockPrices AS c2 "
            "WHERE c1.stockSymbol = 'MSFT' AND c2.stockSymbol != 'MSFT' "
            "AND c2.closingPrice > c1.closingPrice "
            "AND c2.timestamp = c1.timestamp "
            "for (t = 5; t < 8; t++) { "
            "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }",
            days=10)
        # MSFT = 45+day passes IBM (50) after day 5, so early windows
        # have matches and later ones thin out.
        first_window = results[0][1]
        assert all(t["stockSymbol"] == "IBM" for t in first_window)
        assert len(first_window) == 4     # days 1..4 of window 1..5
        assert [len(rows) for _t, rows in results] == [4, 3, 2]
        assert first_window[0].schema.column_names() == [
            "c2.timestamp", "c2.stockSymbol", "c2.closingPrice"]
