"""E11 — §4.2.2: footprint-based query classes.

"The goal is to separate queries into classes that have significant
potential for sharing work ... we create query classes for disjoint
sets of footprints."

Setup: two disjoint stream groups (stocks, sensors) × N queries each.
Checked:

* grouping — queries land in exactly two Execution Objects / two shared
  CACQ engines; a bridging join merges them;
* the sharing payoff — grouped-filter probes per tuple stay flat as N
  grows within a class (that is *why* classes exist);
* isolation — pushing only stock data never touches the sensor class.
"""

import pytest

from repro.analysis.plan_check import DEFAULT_LINEAGE_CAPACITY
from repro.analysis.report import PlanCheckWarning
from repro.client import LocalConnection
from repro.core.tuples import Schema
from repro.ingress.generators import (CLOSING_STOCK_PRICES,
                                      SENSOR_READINGS,
                                      SensorStreamGenerator,
                                      StockStreamGenerator)

from benchmarks.conftest import print_table


def submit_class(srv, make_sql, n):
    """``n`` queries into one footprint class; the admissions past the
    advisory lineage capacity are admitted with one TCQ205 warning."""
    first = min(n, DEFAULT_LINEAGE_CAPACITY)
    cursors = [srv.submit(make_sql(i)) for i in range(first)]
    if n > first:
        with pytest.warns(PlanCheckWarning, match="TCQ205"):
            cursors += [srv.submit(make_sql(i)) for i in range(first, n)]
    return cursors


def build_server(n_per_class):
    srv = LocalConnection().server
    srv.create_stream(CLOSING_STOCK_PRICES)
    srv.create_stream(SENSOR_READINGS)
    stock_cursors = submit_class(
        srv, lambda i: ("SELECT * FROM ClosingStockPrices "
                        f"WHERE closingPrice > {30 + i % 40}"),
        n_per_class)
    sensor_cursors = submit_class(
        srv, lambda i: ("SELECT * FROM SensorReadings WHERE temperature > "
                        f"{15 + i % 20}"),
        n_per_class)
    return srv, stock_cursors, sensor_cursors


def push_data(srv, n_days=20):
    for t in StockStreamGenerator(seed=8).take(n_days):
        srv.push_tuple("ClosingStockPrices", t)
    for t in SensorStreamGenerator(seed=8).take(n_days):
        srv.push_tuple("SensorReadings", t)


def probes_per_tuple(srv):
    total_probes = 0
    total_tuples = 0
    for engine in srv._cacq.values():
        total_probes += engine.filter_probes
        total_tuples += engine.tuples_in
    return total_probes / total_tuples if total_tuples else 0.0


def test_e11_shape():
    rows = []
    for n in (5, 50, 500):
        srv, _s, _e = build_server(n)
        push_data(srv)
        rows.append((n, srv.stats()["cacq_engines"],
                     len(srv.executor.footprints.peek(
                         ["ClosingStockPrices", "SensorReadings"])),
                     probes_per_tuple(srv)))
    print_table("E11: footprint classes as queries scale",
                ["queries/class", "shared engines", "classes",
                 "filter probes per tuple"], rows)
    # always exactly two disjoint classes, regardless of N
    assert all(r[1] == 2 and r[2] == 2 for r in rows)
    # sharing: probes per tuple do not grow with query count
    assert rows[-1][3] <= rows[0][3] * 1.5


def test_e11_bridging_join_merges_classes():
    srv, _s, _e = build_server(10)
    assert srv.stats()["cacq_engines"] == 2
    with pytest.warns(PlanCheckWarning, match="TCQ204"):
        srv.submit("SELECT * FROM ClosingStockPrices, SensorReadings "
                   "WHERE ClosingStockPrices.timestamp = SensorReadings.ts")
    assert srv.stats()["cacq_engines"] == 1
    push_data(srv, n_days=5)        # everything still delivers
    assert srv.stats()["ingested"] > 0


def test_e11_isolation_between_classes():
    srv, stock_cursors, sensor_cursors = build_server(10)
    for t in StockStreamGenerator(seed=9).take(10):
        srv.push_tuple("ClosingStockPrices", t)
    assert sum(c.delivered for c in stock_cursors) > 0
    assert sum(c.delivered for c in sensor_cursors) == 0
    # the sensor-class engine never saw a tuple
    for engine in srv._cacq.values():
        if "SensorReadings" in engine.schemas:
            assert engine.tuples_in == 0


@pytest.mark.benchmark(group="E11")
@pytest.mark.parametrize("n", [10, 100])
def test_e11_routing_timing(benchmark, n):
    def build_and_push():
        # fresh server per round: stream timestamps must stay monotone
        srv, _s, _e = build_server(n)
        push_data(srv, n_days=5)

    benchmark(build_and_push)
