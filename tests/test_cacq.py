"""Tests for the CACQ shared continuous-query engine: correctness of
shared selections and joins, lineage isolation, dynamic add/remove, and
equivalence with the unshared per-query baseline."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.per_query import PerQueryEngine
from repro.core.cacq import CACQEngine
from repro.core.tuples import Schema
from repro.errors import QueryError
from repro.query.predicates import (And, ColumnComparison, Comparison, Or)
from tests.conftest import values_of

TRADES = Schema.of("trades", "sym", "price")
QUOTES = Schema.of("quotes", "sym", "bid")


def fresh_engine():
    engine = CACQEngine()
    engine.register_stream(TRADES)
    engine.register_stream(QUOTES)
    return engine


class TestSelections:
    def test_single_query(self):
        engine = fresh_engine()
        q = engine.add_query(["trades"], Comparison("price", ">", 50))
        engine.push("trades", sym="A", price=60, timestamp=1)
        engine.push("trades", sym="A", price=40, timestamp=2)
        assert [t["price"] for t in q.results] == [60]

    def test_unknown_stream_rejected(self):
        engine = fresh_engine()
        with pytest.raises(QueryError):
            engine.add_query(["nope"], Comparison("price", ">", 0))

    def test_many_queries_isolated_lineage(self):
        engine = fresh_engine()
        queries = [engine.add_query(["trades"],
                                    Comparison("price", ">", th))
                   for th in range(0, 100, 10)]
        for price in (5, 35, 95):
            engine.push("trades", sym="A", price=price)
        for i, q in enumerate(queries):
            threshold = i * 10
            expected = sum(1 for p in (5, 35, 95) if p > threshold)
            assert q.delivered == expected

    def test_conjunction_multiple_attributes(self):
        engine = fresh_engine()
        q = engine.add_query(["trades"],
                             And(Comparison("price", ">", 10),
                                 Comparison("sym", "==", "A")))
        engine.push("trades", sym="A", price=20)
        engine.push("trades", sym="B", price=20)
        engine.push("trades", sym="A", price=5)
        assert q.delivered == 1

    def test_disjunction_as_residual(self):
        engine = fresh_engine()
        q = engine.add_query(["trades"],
                             Or(Comparison("price", ">", 90),
                                Comparison("sym", "==", "Z")))
        engine.push("trades", sym="Z", price=1)
        engine.push("trades", sym="A", price=95)
        engine.push("trades", sym="A", price=10)
        assert q.delivered == 2

    def test_callback_delivery(self):
        engine = fresh_engine()
        received = []
        engine.add_query(["trades"], Comparison("price", ">", 0),
                         callback=received.append)
        engine.push("trades", sym="A", price=5)
        assert len(received) == 1

    def test_filter_sharing_one_probe_for_many_queries(self):
        engine = fresh_engine()
        for th in range(64):
            engine.add_query(["trades"], Comparison("price", ">", th))
        engine.push("trades", sym="A", price=50)
        # one grouped-filter probe, not 64 evaluations
        assert engine.filter_probes == 1

    def test_more_than_64_queries(self):
        """Query bitmaps are Python ints: no 64-query ceiling."""
        engine = fresh_engine()
        queries = [engine.add_query(["trades"],
                                    Comparison("price", ">", i))
                   for i in range(100)]
        engine.push("trades", sym="A", price=1000)
        assert all(q.delivered == 1 for q in queries)


class TestDynamicQueries:
    def test_add_mid_stream(self):
        engine = fresh_engine()
        q1 = engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.push("trades", sym="A", price=1)
        q2 = engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.push("trades", sym="A", price=2)
        assert q1.delivered == 2
        assert q2.delivered == 1    # only data after registration

    def test_remove_mid_stream(self):
        engine = fresh_engine()
        q1 = engine.add_query(["trades"], Comparison("price", ">", 0))
        q2 = engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.push("trades", sym="A", price=1)
        engine.remove_query(q1)
        engine.push("trades", sym="A", price=2)
        assert q1.delivered == 1
        assert q2.delivered == 2

    def test_remove_unknown_rejected(self):
        engine = fresh_engine()
        q = engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.remove_query(q)
        with pytest.raises(QueryError):
            engine.remove_query(q)

    def test_remove_prunes_pair_registry(self):
        engine = fresh_engine()
        q = engine.add_query(
            ["trades", "quotes"],
            ColumnComparison("trades.sym", "==", "quotes.sym"))
        assert engine.join_classes
        engine.remove_query(q)
        assert not engine.join_classes


class TestJoins:
    def test_two_stream_join(self):
        engine = fresh_engine()
        q = engine.add_query(
            ["trades", "quotes"],
            ColumnComparison("trades.sym", "==", "quotes.sym"))
        engine.push("trades", sym="A", price=10, timestamp=1)
        engine.push("quotes", sym="A", bid=9, timestamp=2)
        engine.push("quotes", sym="B", bid=1, timestamp=3)
        engine.push("trades", sym="B", price=2, timestamp=4)
        assert q.delivered == 2

    def test_join_with_selections(self):
        engine = fresh_engine()
        q = engine.add_query(
            ["trades", "quotes"],
            And(ColumnComparison("trades.sym", "==", "quotes.sym"),
                Comparison("trades.price", ">", 5)))
        engine.push("trades", sym="A", price=1, timestamp=1)   # fails filter
        engine.push("trades", sym="A", price=10, timestamp=2)
        engine.push("quotes", sym="A", bid=0, timestamp=3)
        assert q.delivered == 1
        assert q.results[0]["trades.price"] == 10

    def test_join_and_selection_queries_coexist(self):
        engine = fresh_engine()
        join_q = engine.add_query(
            ["trades", "quotes"],
            ColumnComparison("trades.sym", "==", "quotes.sym"))
        sel_q = engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.push("trades", sym="A", price=10, timestamp=1)
        engine.push("quotes", sym="A", bid=9, timestamp=2)
        assert sel_q.delivered == 1
        assert join_q.delivered == 1
        # the selection query never receives composite tuples
        assert all(t.sources == frozenset({"trades"})
                   for t in sel_q.results)

    def test_join_band_residual(self):
        engine = fresh_engine()
        q = engine.add_query(
            ["trades", "quotes"],
            And(ColumnComparison("trades.sym", "==", "quotes.sym"),
                ColumnComparison("quotes.bid", "<", "trades.price")))
        engine.push("trades", sym="A", price=10, timestamp=1)
        engine.push("quotes", sym="A", bid=5, timestamp=2)    # bid < price
        engine.push("quotes", sym="A", bid=50, timestamp=3)   # bid > price
        assert q.delivered == 1

    def test_queries_with_different_join_columns(self):
        schema_x = Schema.of("x", "k1", "k2")
        schema_y = Schema.of("y", "k1", "k2")
        engine = CACQEngine()
        engine.register_stream(schema_x)
        engine.register_stream(schema_y)
        q1 = engine.add_query(["x", "y"],
                              ColumnComparison("x.k1", "==", "y.k1"))
        q2 = engine.add_query(["x", "y"],
                              ColumnComparison("x.k2", "==", "y.k2"))
        engine.push("x", k1=1, k2=100, timestamp=1)
        engine.push("y", k1=1, k2=200, timestamp=2)   # matches q1 only
        engine.push("y", k1=9, k2=100, timestamp=3)   # matches q2 only
        assert q1.delivered == 1
        assert q2.delivered == 1

    def test_shared_stems_across_join_queries(self):
        engine = fresh_engine()
        engine.add_query(["trades", "quotes"],
                         ColumnComparison("trades.sym", "==", "quotes.sym"))
        engine.add_query(
            ["trades", "quotes"],
            And(ColumnComparison("trades.sym", "==", "quotes.sym"),
                Comparison("trades.price", ">", 100)))
        # one physical SteM per stream, not per query
        assert set(engine.stems) == {"trades", "quotes"}

    def test_stats_shape(self):
        engine = fresh_engine()
        engine.add_query(["trades"], Comparison("price", ">", 0))
        engine.push("trades", sym="A", price=1)
        stats = engine.stats()
        assert stats["queries"] == 1
        assert stats["tuples_in"] == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([">", "<", "==", ">="]),
                          st.integers(0, 50)),
                min_size=1, max_size=12),
       st.lists(st.integers(0, 60), min_size=1, max_size=40),
       st.integers(0, 100))
def test_cacq_equals_per_query_baseline(preds, prices, seed):
    """Property: CACQ's shared execution delivers exactly what the
    unshared per-query engine delivers, for random selection workloads."""
    cacq = CACQEngine()
    cacq.register_stream(TRADES)
    per = PerQueryEngine()
    per.register_stream(TRADES)
    cacq_queries = []
    per_queries = []
    for op, value in preds:
        pred = Comparison("price", op, value)
        cacq_queries.append(cacq.add_query(["trades"], pred))
        per_queries.append(per.add_query(["trades"], pred))
    rng = random.Random(seed)
    syms = ["A", "B", "C"]
    for i, price in enumerate(prices):
        sym = rng.choice(syms)
        cacq.push("trades", sym=sym, price=price, timestamp=i)
        per.push("trades", sym=sym, price=price, timestamp=i)
    for cq, pq in zip(cacq_queries, per_queries):
        assert values_of(cq.results) == values_of(pq.results)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                          st.integers(0, 30)),
                min_size=2, max_size=30),
       st.integers(0, 40))
def test_cacq_join_equals_per_query_baseline(arrivals, threshold):
    """Property: shared SteM joins deliver the same results as per-query
    symmetric joins."""
    pred = And(ColumnComparison("trades.sym", "==", "quotes.sym"),
               Comparison("trades.price", ">", threshold))
    cacq = CACQEngine()
    cacq.register_stream(TRADES)
    cacq.register_stream(QUOTES)
    per = PerQueryEngine()
    per.register_stream(TRADES)
    per.register_stream(QUOTES)
    cq = cacq.add_query(["trades", "quotes"], pred)
    pq = per.add_query(["trades", "quotes"], pred)
    for i, (is_trade, key, value) in enumerate(arrivals):
        if is_trade:
            cacq.push("trades", sym=key, price=value, timestamp=i)
            per.push("trades", sym=key, price=value, timestamp=i)
        else:
            cacq.push("quotes", sym=key, bid=value, timestamp=i)
            per.push("quotes", sym=key, bid=value, timestamp=i)
    assert values_of(cq.results) == values_of(pq.results)


# -- shared engine == per-query baseline under admit/cancel churn -------------

_NUMERIC = {"trades": "price", "quotes": "bid"}
_FACTORS = st.lists(
    st.tuples(st.booleans(),            # numeric column (else ``sym``)
              st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              st.integers(0, 4)),
    max_size=3)
_QUERIES = st.one_of(
    st.tuples(st.just("select"), st.sampled_from(["trades", "quotes"]),
              _FACTORS.filter(len)),
    # A two-stream class: equijoin on ``sym`` or on price = bid, with
    # selections on the trades side.
    st.tuples(st.just("join"), st.booleans(), _FACTORS))
_CHURN = st.lists(st.one_of(
    st.tuples(st.just("admit"), _QUERIES),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("push"), st.sampled_from(["trades", "quotes"]),
              st.integers(0, 2), st.integers(0, 4))),
    min_size=1, max_size=60)


def _churn_query(spec):
    """``(streams, predicate, {(stream, attr): [factors]})``."""
    kind, which, factors = spec
    stream = which if kind == "select" else "trades"
    parts, by_filter = [], {}
    for numeric, op, constant in factors:
        attr = _NUMERIC[stream] if numeric else "sym"
        column = attr if kind == "select" else f"{stream}.{attr}"
        parts.append(Comparison(column, op, constant))
        by_filter.setdefault((stream, attr), []).append(
            Comparison(attr, op, constant))
    if kind == "select":
        return [stream], And(*parts) if len(parts) > 1 else parts[0], \
            by_filter
    join = ColumnComparison("trades.sym", "==", "quotes.sym") if which \
        else ColumnComparison("trades.price", "==", "quotes.bid")
    return ["trades", "quotes"], And(join, *parts), by_filter


@settings(max_examples=150, deadline=None)
@given(_CHURN)
def test_cacq_equals_per_query_baseline_under_churn(operations):
    """Property: with queries admitted and cancelled between pushes the
    shared engine delivers, query by query, the multiset the unshared
    engine delivers, and probes each grouped filter exactly when a live
    query registered in it is still interested in the tuple."""
    cacq, per = fresh_engine(), PerQueryEngine()
    per.register_stream(TRADES)
    per.register_stream(QUOTES)
    admitted = []                       # (cacq query, baseline query)
    live = {}                           # position in admitted -> by_filter
    filter_order = {"trades": [], "quotes": []}
    expected_probes = 0
    for i, operation in enumerate(operations):
        if operation[0] == "admit":
            streams, predicate, by_filter = _churn_query(operation[1])
            live[len(admitted)] = (set(streams), by_filter)
            admitted.append((cacq.add_query(streams, predicate),
                             per.add_query(streams, predicate)))
            for stream, attr in by_filter:
                if attr not in filter_order[stream]:
                    filter_order[stream].append(attr)
        elif operation[0] == "cancel":
            if live:
                k = sorted(live)[operation[1] % len(live)]
                del live[k]
                cacq.remove_query(admitted[k][0])
                per.remove_query(admitted[k][1])
        else:
            _, stream, sym, number = operation
            row = {"sym": sym, _NUMERIC[stream]: number}
            cacq.push(stream, timestamp=i, **row)
            per.push(stream, timestamp=i, **row)
            alive = {k for k, (streams, _f) in live.items()
                     if stream in streams}
            for attr in filter_order[stream]:
                registered = {k for k in alive
                              if (stream, attr) in live[k][1]}
                if not alive:
                    break
                if not registered:
                    continue
                expected_probes += 1
                alive -= {k for k in registered
                          if not all(f.evaluate(row[attr])
                                     for f in live[k][1][(stream, attr)])}
        assert cacq.filter_probes == expected_probes
    for cq, pq in admitted:
        assert values_of(cq.results) == values_of(pq.results)
    assert set(cacq.queries) == {admitted[k][0].qid for k in live}
    for cls in cacq.join_classes.values():
        assert cls.mask == sum(q.bit for q in cacq.queries.values()
                               if q.join_class is cls)
    for k in sorted(live):
        cacq.remove_query(admitted[k][0])
    assert not cacq.join_classes
    assert all(gf.registered_mask == 0 and len(gf) == 0
               for gf in cacq.filters.values())
