"""E11 — §4.2.2: footprint-based query classes.

"The goal is to separate queries into classes that have significant
potential for sharing work ... we create query classes for disjoint
sets of footprints."

In the paper a class is what one Execution Object (one thread) runs.
This server has no threads and runs CACQ synchronously inside the door,
with its shared state already keyed per stream, so every continuous
query lives in the server's one CACQ engine and there are no classes.
What a class promised continuous queries is checked on that one engine.

Setup: two disjoint stream groups (stocks, sensors) × N queries each.
Checked:

* the sharing payoff — grouped-filter probes per tuple stay flat as N
  grows (that is *why* queries are grouped);
* isolation — pushing only stock rows probes no sensor grouped filter
  and delivers to no sensor cursor;
* bridging — a join across the groups is an ordinary admission: no
  query is re-registered, and every standing query keeps delivering.
"""

import pytest

from repro.analysis.plan_check import DEFAULT_LINEAGE_CAPACITY
from repro.analysis.report import PlanCheckWarning
from repro.client import LocalConnection
from repro.ingress.generators import (CLOSING_STOCK_PRICES,
                                      SENSOR_READINGS,
                                      SensorStreamGenerator,
                                      StockStreamGenerator)

from benchmarks.conftest import print_table


def stock_sql(i):
    return ("SELECT * FROM ClosingStockPrices "
            f"WHERE closingPrice > {30 + i % 40}")


def sensor_sql(i):
    return ("SELECT * FROM SensorReadings "
            f"WHERE temperature > {15 + i % 20}")


def build_server(n_per_group):
    """``n_per_group`` queries per stream group; the one admission that
    takes the shared engine past the advisory lineage capacity carries a
    TCQ205 warning."""
    srv = LocalConnection().server
    srv.create_stream(CLOSING_STOCK_PRICES)
    srv.create_stream(SENSOR_READINGS)
    makers = [stock_sql] * n_per_group + [sensor_sql] * n_per_group
    first = min(len(makers), DEFAULT_LINEAGE_CAPACITY)
    cursors = [srv.submit(make(i % n_per_group))
               for i, make in enumerate(makers[:first])]
    if len(makers) > first:
        with pytest.warns(PlanCheckWarning, match="TCQ205"):
            cursors += [srv.submit(make(i % n_per_group)) for i, make
                        in enumerate(makers[first:], start=first)]
    return srv, cursors[:n_per_group], cursors[n_per_group:]


def push_stocks(srv, n_days=20, seed=8):
    for t in StockStreamGenerator(seed=seed).take(n_days):
        srv.push_tuple("ClosingStockPrices", t)


def push_sensors(srv, n_days=20, seed=8):
    for t in SensorStreamGenerator(seed=seed).take(n_days):
        srv.push_tuple("SensorReadings", t)


def probes_per_tuple(srv):
    engine = srv.cacq
    return engine.filter_probes / engine.tuples_in if engine.tuples_in \
        else 0.0


def test_e11_shape():
    rows = []
    for n in (5, 50, 500):
        srv, _s, _e = build_server(n)
        push_stocks(srv)
        push_sensors(srv)
        rows.append((n, len(srv.cacq.queries), probes_per_tuple(srv)))
    print_table("E11: query groups as queries scale",
                ["queries/group", "standing queries",
                 "filter probes per tuple"], rows)
    assert [r[1] for r in rows] == [10, 100, 1000]
    # sharing: probes per tuple do not grow with query count
    assert rows[-1][2] <= rows[0][2] * 1.5


def test_e11_isolation_between_groups():
    srv, stock_cursors, sensor_cursors = build_server(10)
    sensor_filter = srv.cacq.filters[("SensorReadings", "temperature")]
    push_stocks(srv, n_days=10, seed=9)
    assert sum(c.delivered for c in stock_cursors) > 0
    assert sum(c.delivered for c in sensor_cursors) == 0
    # no stock row ever met the sensor group's grouped filter
    assert sensor_filter.probes == sensor_filter.seen == 0


def test_e11_bridging_join_needs_no_reregistration():
    delivered = []
    for bridged in (False, True):
        srv, stock_cursors, sensor_cursors = build_server(10)
        standing = dict(srv.cacq.queries)
        if bridged:
            bridge = srv.submit(
                "SELECT * FROM ClosingStockPrices, SensorReadings "
                "WHERE ClosingStockPrices.timestamp = SensorReadings.ts")
            assert bridge.diagnostics == []
            # every standing query is still the object it was
            assert all(srv.cacq.queries[qid] is q
                       for qid, q in standing.items())
        push_stocks(srv, n_days=5)
        push_sensors(srv, n_days=5)
        delivered.append([c.delivered
                          for c in stock_cursors + sensor_cursors])
    # the bridge changes no standing query's answer, and both groups
    # deliver
    assert delivered[0] == delivered[1]
    assert sum(delivered[1][:10]) > 0 and sum(delivered[1][10:]) > 0


@pytest.mark.benchmark(group="E11")
@pytest.mark.parametrize("n", [10, 100])
def test_e11_routing_timing(benchmark, n):
    def build_and_push():
        # fresh server per round: stream timestamps must stay monotone
        srv, _s, _e = build_server(n)
        push_stocks(srv, n_days=5)
        push_sensors(srv, n_days=5)

    benchmark(build_and_push)
