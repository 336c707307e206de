"""Integration tests: multi-subsystem scenarios that exercise the
paper's architecture end to end — wrappers feeding eddies through
Fjords, windowed queries over spooled storage, QoS in front of CACQ,
and the full server under a mixed workload."""

import pytest

from repro.core.cacq import CACQEngine
from repro.core.eddy import Eddy, FilterOperator, SteMOperator
from repro.core.engine import TelegraphCQServer
from repro.core.routing import LotteryPolicy
from repro.core.stem import SteM
from repro.core.tuples import Schema
from repro.core.windows import ForLoopSpec, HistoricalStore
from repro.fjords.fjord import Fjord
from repro.fjords.module import CollectingSink
from repro.ingress.generators import (CLOSING_STOCK_PRICES,
                                      SensorStreamGenerator,
                                      StockStreamGenerator)
from repro.ingress.sources import PullSource, PushSource
from repro.ingress.wrappers import (StreamScanner, Streamer, WrapperHost,
                                    WrapperSourceModule)
from repro.monitor.qos import LoadShedder
from repro.query.predicates import ColumnComparison, Comparison
from repro.storage.buffer_pool import BufferPool
from repro.storage.spooled_stream import SpooledStream


class TestWrapperToEddy:
    """Figure 1 assembled: ingress wrapper -> Fjord -> eddy -> sink."""

    def test_mixed_push_pull_join(self):
        S = Schema.of("S", "k", "x")
        T = Schema.of("T", "k", "y")
        s_rows = [S.make(i % 3, i, timestamp=i) for i in range(1, 10)]
        t_rows = [T.make(i % 3, i * 10, timestamp=i) for i in range(1, 10)]
        join = ColumnComparison("S.k", "==", "T.k")
        eddy = Eddy([SteMOperator(SteM("S", ["S.k"]), [join]),
                     SteMOperator(SteM("T", ["T.k"]), [join])],
                    output_sources={"S", "T"}, policy=LotteryPolicy(seed=0),
                    arity_in=2)
        f = Fjord()
        sink = CollectingSink()
        # S is pulled (static-ish), T pushes on its own schedule.
        f.connect(WrapperSourceModule(PullSource("s", s_rows)), eddy,
                  in_port=0)
        f.connect(WrapperSourceModule(PushSource("t", t_rows)), eddy,
                  in_port=1)
        f.connect(eddy, sink)
        f.run_until_finished()
        expected = sum(1 for a in range(1, 10) for b in range(1, 10)
                       if a % 3 == b % 3)
        assert len(sink.results) == expected


class TestWindowedOverSpooledStorage:
    """Out-of-core historical windows: the CACQ/PSoup limitation the
    TelegraphCQ storage manager removes."""

    def test_windowed_scan_through_tiny_buffer_pool(self):
        pool = BufferPool(n_frames=3)
        spooled = SpooledStream(CLOSING_STOCK_PRICES, pool,
                                page_capacity=16)
        rows = StockStreamGenerator(symbols=("MSFT",), seed=4).take(200)
        spooled.extend(rows)
        spooled.seal()
        assert pool.evictions > 0
        spec = ForLoopSpec.sliding("ClosingStockPrices", width=20,
                                   start=20, stop=200, hop=20)
        sums = []
        for instance in spec:
            lo, hi = instance.bounds_for("ClosingStockPrices")
            window = spooled.scan_window(lo, hi)
            assert len(window) == 20
            sums.append(sum(t["closingPrice"] for t in window))
        assert len(sums) == 9

    def test_truncation_follows_sliding_window(self):
        pool = BufferPool(n_frames=4)
        spooled = SpooledStream(CLOSING_STOCK_PRICES, pool,
                                page_capacity=8)
        rows = StockStreamGenerator(symbols=("MSFT",), seed=4).take(100)
        width = 10
        for t in rows:
            spooled.append(t)
            spooled.truncate_before(t.timestamp - 2 * width)
        assert spooled.page_count < 6      # old pages retired


class TestQosInFrontOfCacq:
    def test_shedding_bounds_work_and_degrades_completeness(self):
        engine = CACQEngine()
        engine.register_stream(CLOSING_STOCK_PRICES)
        q = engine.add_query(["ClosingStockPrices"],
                             Comparison("closingPrice", ">", 0))
        shedder = LoadShedder(policy="random", seed=2,
                              target_utilisation=1.0)
        rows = StockStreamGenerator(seed=9).take(100)   # 500 tuples
        capacity_per_epoch = 20
        processed = 0
        for epoch_start in range(0, len(rows), 40):
            arriving = rows[epoch_start:epoch_start + 40]
            shedder.update(arrived=len(arriving),
                           serviced=capacity_per_epoch)
            admitted = shedder.admit(arriving)
            for t in admitted:
                engine.push_tuple("ClosingStockPrices", t)
                processed += 1
        assert shedder.dropped > 0
        assert q.delivered == processed         # answers only over admitted
        assert 0.3 < shedder.completeness() < 1.0


class TestFullServerMixedWorkload:
    def test_sensors_and_stocks_coexist(self):
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        srv.create_stream(Schema.of("SensorReadings", "ts", "sensor_id",
                                    "temperature", "voltage"))
        hot = srv.submit(
            "SELECT * FROM SensorReadings WHERE temperature > 40")
        expensive = srv.submit(
            "SELECT * FROM ClosingStockPrices WHERE closingPrice > 55")
        windowed = srv.submit("""
            SELECT AVG(temperature) FROM SensorReadings
            for (t = 10; t <= 30; t += 10) {
                WindowIs(SensorReadings, t - 9, t);
            }""")
        for t in SensorStreamGenerator(n_sensors=2, seed=1,
                                       anomaly_rate=0.05,
                                       anomaly_delta=50.0).take(40):
            srv.push_tuple("SensorReadings", t)
            srv.step()
        for t in StockStreamGenerator(seed=2).take(40):
            srv.push_tuple("ClosingStockPrices", t)
            srv.step()
        srv.close_stream("SensorReadings")
        srv.run_until_quiescent()
        # two disjoint footprints, one shared engine
        assert srv.stats()["continuous_queries"] == 2
        assert len(windowed.fetch_windows()) == 3
        assert hot.fetch()          # anomalies exist at 5% over 80 readings
        assert expensive.pending() == 0 or expensive.fetch()

    def test_scanner_replays_history_to_new_dataflow(self):
        """New queries see old data: the server's historical store feeds
        a window scanner into a fresh dataflow (PSoup's promise at the
        system level)."""
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        for t in StockStreamGenerator(symbols=("MSFT",), seed=3).take(50):
            srv.push_tuple("ClosingStockPrices", t)
        store = srv.stores["ClosingStockPrices"]
        spec = ForLoopSpec.landmark("ClosingStockPrices", anchor=1,
                                    start=10, stop=50, step=10)
        scanner = StreamScanner(store, spec)
        sink = CollectingSink()
        f = Fjord()
        f.connect(scanner, sink)
        f.run_until_finished()
        assert [len(w) for w in sink.windows()] == [10, 20, 30, 40, 50]


class TestWrapperHostIntoServer:
    def test_host_drives_streams_into_live_queries(self):
        srv = TelegraphCQServer()
        srv.create_stream(CLOSING_STOCK_PRICES)
        cur = srv.submit(
            "SELECT * FROM ClosingStockPrices WHERE stockSymbol = 'MSFT'")
        rows = StockStreamGenerator(seed=6).take(10)   # 50 tuples
        host = WrapperHost()

        class ServerStreamer(Streamer):
            # The IngressPoint handles admission/counting; only the
            # delivery target changes (fjord queues -> the server).
            def _push_all(self, batch):
                for t in batch:
                    srv.push_tuple(self.stream, t)

            def close(self):
                srv.close_stream(self.stream)

        host.register(PushSource("stock", rows),
                      ServerStreamer("ClosingStockPrices"))
        while not host.all_exhausted:
            host.step()
            srv.step()
        srv.run_until_quiescent()
        assert len(cur.fetch()) == 10       # one MSFT row per day
