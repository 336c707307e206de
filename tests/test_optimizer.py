"""Tests for the catalog and the optimizer's plan classification and
windowed evaluation pipeline."""

import pytest

from repro.core.tuples import Schema
from repro.core.windows import HistoricalStore
from repro.errors import QueryError
from repro.query.catalog import Catalog
from repro.query.optimizer import compile_query
from repro.query.parser import parse

TRADES = Schema.of("trades", "sym", "price")
REF = Schema.of("refdata", "sym", "sector")


def fresh_catalog():
    catalog = Catalog()
    catalog.create_stream(TRADES)
    catalog.create_table(REF)
    return catalog


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = fresh_catalog()
        assert catalog.lookup("trades").is_stream
        assert not catalog.lookup("refdata").is_stream

    def test_duplicate_rejected(self):
        catalog = fresh_catalog()
        with pytest.raises(QueryError, match="already exists"):
            catalog.create_stream(TRADES)

    def test_unknown_lookup(self):
        with pytest.raises(QueryError, match="unknown"):
            fresh_catalog().lookup("nope")

    def test_drop(self):
        catalog = fresh_catalog()
        catalog.drop("trades")
        assert not catalog.exists("trades")
        with pytest.raises(QueryError):
            catalog.drop("trades")

    def test_streams_tables_listing(self):
        catalog = fresh_catalog()
        assert catalog.streams() == ["trades"]
        assert catalog.tables() == ["refdata"]

    def test_resolve_unqualified(self):
        catalog = fresh_catalog()
        assert catalog.resolve_column(
            "price", [("trades", "trades")]) == "trades.price"

    def test_resolve_ambiguous_rejected(self):
        catalog = fresh_catalog()
        with pytest.raises(QueryError, match="ambiguous"):
            catalog.resolve_column(
                "sym", [("trades", "trades"), ("refdata", "refdata")])

    def test_resolve_unknown_binding(self):
        catalog = fresh_catalog()
        with pytest.raises(QueryError, match="unknown binding"):
            catalog.resolve_column("zzz.a", [("trades", "trades")])

    def test_alias_schema(self):
        catalog = fresh_catalog()
        aliased = catalog.alias_schema("trades", "t2")
        assert aliased.sources == frozenset({"t2"})
        assert aliased.column_names() == ["sym", "price"]


class TestClassification:
    def test_snapshot_over_table(self):
        compiled = compile_query(parse("SELECT * FROM refdata"),
                                 fresh_catalog())
        assert compiled.kind == "snapshot"

    def test_continuous_over_stream(self):
        compiled = compile_query(
            parse("SELECT * FROM trades WHERE price > 1"), fresh_catalog())
        assert compiled.kind == "continuous"

    def test_windowed_when_for_loop_present(self):
        compiled = compile_query(parse(
            """SELECT * FROM trades
               for (t = 1; t < 5; t++) { WindowIs(trades, 1, t); }"""),
            fresh_catalog())
        assert compiled.kind == "windowed"
        assert compiled.window_plan is not None

    def test_stream_aggregate_without_window_rejected(self):
        with pytest.raises(QueryError, match="for-loop window"):
            compile_query(parse("SELECT AVG(price) FROM trades"),
                          fresh_catalog())

    def test_unknown_source_rejected(self):
        with pytest.raises(QueryError):
            compile_query(parse("SELECT * FROM nope"), fresh_catalog())

    def test_duplicate_binding_rejected(self):
        with pytest.raises(QueryError, match="duplicate FROM binding"):
            compile_query(parse("SELECT * FROM trades, trades"),
                          fresh_catalog())

    def test_predicate_columns_qualified(self):
        compiled = compile_query(
            parse("SELECT * FROM trades WHERE price > 1"), fresh_catalog())
        assert "trades.price" in repr(compiled.predicate)

    def test_windowis_must_name_from_binding(self):
        with pytest.raises(QueryError, match="not in FROM"):
            compile_query(parse(
                """SELECT * FROM trades
                   for (t = 1; t < 5; t++) { WindowIs(other, 1, t); }"""),
                fresh_catalog())

    def test_footprint(self):
        compiled = compile_query(
            parse("SELECT * FROM trades AS a, trades AS b "
                  "WHERE a.sym = b.sym "
                  "for (t=1; t<2; t++) { WindowIs(a,1,t); WindowIs(b,1,t); }"),
            fresh_catalog())
        assert compiled.footprint == frozenset({"a", "b"})


class TestWindowedPlanEvaluation:
    def _compiled(self, sql):
        return compile_query(parse(sql), fresh_catalog())

    def test_filters_applied_per_binding(self):
        compiled = self._compiled(
            """SELECT * FROM trades WHERE price > 10
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        rows = [TRADES.make("A", 5, timestamp=1),
                TRADES.make("B", 20, timestamp=2)]
        out = compiled.window_plan.evaluate({"trades": rows})
        assert [t["price"] for t in out] == [20]

    def test_projection(self):
        compiled = self._compiled(
            """SELECT sym FROM trades
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate(
            {"trades": [TRADES.make("A", 5, timestamp=1)]})
        assert out[0].schema.column_names() == ["sym"]

    def test_aggregate_no_groups(self):
        compiled = self._compiled(
            """SELECT AVG(price) FROM trades
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate(
            {"trades": [TRADES.make("A", 10, timestamp=1),
                        TRADES.make("B", 20, timestamp=2)]})
        assert out[0]["avg_price"] == 15.0

    def test_aggregate_empty_window_count_zero(self):
        compiled = self._compiled(
            """SELECT COUNT(*) FROM trades
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate({"trades": []})
        assert out[0]["count"] == 0

    def test_group_by_aggregate(self):
        compiled = self._compiled(
            """SELECT sym, COUNT(*) FROM trades GROUP BY sym
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate(
            {"trades": [TRADES.make("A", 1, timestamp=1),
                        TRADES.make("A", 2, timestamp=2),
                        TRADES.make("B", 3, timestamp=3)]})
        counts = {t["sym"]: t["count"] for t in out}
        assert counts == {"A": 2, "B": 1}

    def test_distinct(self):
        compiled = self._compiled(
            """SELECT DISTINCT sym FROM trades
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate(
            {"trades": [TRADES.make("A", 1, timestamp=1),
                        TRADES.make("A", 2, timestamp=2)]})
        assert len(out) == 1

    def test_order_by(self):
        compiled = self._compiled(
            """SELECT sym, price FROM trades ORDER BY price DESC
               for (t = 1; t < 3; t++) { WindowIs(trades, 1, t); }""")
        out = compiled.window_plan.evaluate(
            {"trades": [TRADES.make("A", 1, timestamp=1),
                        TRADES.make("B", 9, timestamp=2)]})
        assert [t["price"] for t in out] == [9, 1]

    def test_self_join_small_and_large_windows(self):
        compiled = compile_query(parse(
            """SELECT * FROM trades AS a, trades AS b
               WHERE a.sym = b.sym
               for (t=1; t<2; t++) { WindowIs(a,1,t); WindowIs(b,1,t); }"""),
            fresh_catalog())
        a_schema = Schema(TRADES.columns, name="a")
        b_schema = Schema(TRADES.columns, name="b")
        small = {
            "a": [a_schema.make(s, i, timestamp=1)
                  for i, s in enumerate("xyx")],
            "b": [b_schema.make(s, i, timestamp=1)
                  for i, s in enumerate("xy")],
        }
        big = {
            "a": small["a"],
            "b": [b_schema.make(s, i, timestamp=1)
                  for i, s in enumerate("xyxyx")],
        }
        # One plan, one SteM on b, refilled for the second window.
        small_out = compiled.window_plan.evaluate(small)
        big_out = compiled.window_plan.evaluate(big)
        assert len(small_out) == 3        # x-x (2 a's * 1 b) + y-y
        assert len(big_out) == 8          # 2 a-x * 3 b-x + 1 a-y * 2 b-y
