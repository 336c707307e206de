"""Tests for the routing flight recorder and live EXPLAIN [ANALYZE]
(:mod:`repro.monitor.introspect`): decision capture with evidence
snapshots, the three ordering-reconstruction tiers, the server-level
CACQ EXPLAIN, and the CLI statements that expose them.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.monitor.introspect as introspect
import repro.monitor.tracing as tracing
from repro.cli import TelegraphShell
from repro.core.eddy import Eddy, FilterOperator, SteMOperator
from repro.core.engine import TelegraphCQServer
from repro.core.routing import (BatchingDirective, FixedPolicy,
                                LotteryPolicy)
from repro.core.stem import SteM
from repro.core.tuples import Schema
from repro.monitor.telemetry import MetricRegistry, set_registry
from repro.query.predicates import ColumnComparison, Comparison

S = Schema.of("S", "a", "k")
T = Schema.of("T", "b", "k")


def _reset_observability():
    tracing.TRACER.configure(sample_every=0, capacity=256)
    tracing.TRACER.reset()
    introspect.RECORDER.configure(capacity=512, enabled=False)
    introspect.RECORDER.clear()


@pytest.fixture(autouse=True)
def _isolated_observability():
    previous = set_registry(MetricRegistry())
    _reset_observability()
    yield
    _reset_observability()
    set_registry(previous)


def _filter_eddy(policy=None, specs=((">", 2), ("<", 90))):
    ops = [FilterOperator(Comparison("a", op, v), name=f"f{i}")
           for i, (op, v) in enumerate(specs)]
    policy = policy or FixedPolicy([op.name for op in ops])
    return Eddy(ops, output_sources={"S"}, policy=policy), ops


def _drive(eddy, n=40):
    out = []
    for i in range(n):
        out.extend(eddy.process(S.make(i, i % 3, timestamp=i), 0))
    return out


# ------------------------------------------------------ flight recorder

def test_recorder_disabled_by_default():
    eddy, _ = _filter_eddy()
    _drive(eddy)
    assert len(introspect.RECORDER) == 0
    assert introspect.RECORDER.recorded == 0


def test_recorder_captures_decisions_with_evidence():
    introspect.RECORDER.enable()
    eddy, ops = _filter_eddy()
    _drive(eddy)
    decisions = introspect.RECORDER.recent()
    assert decisions
    d = decisions[0]
    assert d.eddy == eddy._telemetry_id
    assert d.chosen in d.ready
    assert len(d.selectivity) == len(d.ready) == len(d.cost)
    assert all(0.0 <= s <= 1.0 for s in d.selectivity)
    assert d.policy == eddy.policy.describe()
    assert d.rows == 1
    doc = d.to_dict()
    assert doc["chosen"] == d.chosen and doc["ready"] == list(d.ready)


def test_recorder_snapshots_lottery_tickets():
    introspect.RECORDER.enable()
    eddy, _ = _filter_eddy(policy=LotteryPolicy(seed=7))
    _drive(eddy)
    with_tickets = [d for d in introspect.RECORDER.recent() if d.tickets]
    assert with_tickets
    d = with_tickets[0]
    assert len(d.tickets) == len(d.ready)
    assert "tickets" in d.to_dict()


def test_recorder_ring_is_bounded():
    introspect.RECORDER.configure(capacity=8, enabled=True)
    eddy, _ = _filter_eddy()
    _drive(eddy, 50)
    assert introspect.RECORDER.recorded > 8
    assert len(introspect.RECORDER) == 8


# ----------------------------------------------------- explain_eddy tiers

def test_explain_estimated_when_no_evidence():
    eddy, ops = _filter_eddy()
    report = introspect.explain_eddy(eddy)
    assert report["ordering_source"] == "estimated"
    assert len(report["orderings"]) == 1
    assert report["orderings"][0]["frequency"] == 1.0
    assert sorted(report["orderings"][0]["order"]) == \
        sorted(op.name for op in ops)


def test_explain_uses_flight_recorder_without_traces():
    introspect.RECORDER.enable()
    eddy, ops = _filter_eddy()
    _drive(eddy)
    report = introspect.explain_eddy(eddy)
    assert report["ordering_source"] == "flight-recorder"
    assert report["decisions_recorded"] == len(
        [d for d in introspect.RECORDER.recent()
         if d.eddy == eddy._telemetry_id])
    (ordering,) = report["orderings"]
    assert ordering["frequency"] == 1.0
    # FixedPolicy routes f0 before f1 every time.
    assert ordering["order"][:2] == ["f0", "f1"]


def test_explain_prefers_traces():
    tracing.configure_tracing(1)
    introspect.RECORDER.enable()
    eddy, ops = _filter_eddy()
    rows = [S.make(i, i % 3, timestamp=i) for i in range(30)]
    for t in rows:
        tracing.TRACER.maybe_start(t, "S")
        for out in eddy.process(t, 0):
            tracing.finish_item(out, "q")
    report = introspect.explain_eddy(eddy, analyze=True)
    assert report["ordering_source"] == "traces"
    total = sum(o["frequency"] for o in report["orderings"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert report["latency"]["count"] > 0
    assert report["latency"]["p95"] > 0.0


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from([">", "<", ">=", "<=", "!="]),
                          st.integers(0, 50)),
                min_size=1, max_size=4),
       st.integers(5, 60),
       st.booleans())
def test_explain_visits_match_data_plane_counters(specs, n_rows, traced):
    """Property: for any random filter pipeline, traced or untraced, the
    per-operator visit/passed counts EXPLAIN reports are exactly the
    data-plane counters, and ordering frequencies sum to 1."""
    _reset_observability()
    if traced:
        tracing.configure_tracing(1)
        introspect.RECORDER.enable()
    eddy, ops = _filter_eddy(specs=specs)
    for i in range(n_rows):
        t = S.make(i, i % 3, timestamp=i)
        if traced:
            tracing.TRACER.maybe_start(t, "S")
        eddy.process(t, 0)
    report = introspect.explain_eddy(eddy)
    by_name = {op.name: op for op in ops}
    assert len(report["operators"]) == len(ops)
    for entry in report["operators"]:
        op = by_name[entry["name"]]
        assert entry["visits"] == op.seen
        assert entry["passed"] == op.passed_count
        assert entry["selectivity"] == pytest.approx(
            op.observed_selectivity())
    assert sum(o["frequency"] for o in report["orderings"]) == \
        pytest.approx(1.0, abs=1e-9)
    _reset_observability()


def test_explain_join_eddy_reports_stems():
    tracing.configure_tracing(1)
    join = ColumnComparison("S.k", "==", "T.k")
    ops = [SteMOperator(SteM("S", index_columns=("S.k",)), [join],
                        name="stem_s"),
           SteMOperator(SteM("T", index_columns=("T.k",)), [join],
                        name="stem_t")]
    eddy = Eddy(ops, output_sources={"S", "T"},
                policy=FixedPolicy(["stem_s", "stem_t"]),
                batching=BatchingDirective(4))
    rows = [S.make(i, i % 4, timestamp=i) for i in range(12)]
    rows += [T.make(i, i % 4, timestamp=12 + i) for i in range(12)]
    for t in rows:
        tracing.TRACER.maybe_start(t, "S" if t.schema is S else "T")
        for out in eddy.process(t, 0):
            tracing.finish_item(out, "join")
    report = introspect.explain_eddy(eddy)
    kinds = {o["name"]: o["kind"] for o in report["operators"]}
    assert kinds == {"stem_s": "SteMOperator", "stem_t": "SteMOperator"}
    assert report["ordering_source"] == "traces"
    # Build-first constraint: every S tuple visits its home SteM first.
    for o in report["orderings"]:
        assert o["order"][0] in ("stem_s", "stem_t")


# ------------------------------------------------------------- rendering

def test_render_explain_full_report():
    tracing.configure_tracing(1)
    introspect.RECORDER.enable()
    eddy, _ = _filter_eddy()
    rows = [S.make(i, 0, timestamp=i) for i in range(20)]
    for t in rows:
        tracing.TRACER.maybe_start(t, "S")
        for out in eddy.process(t, 0):
            tracing.finish_item(out, "q")
    text = introspect.render_explain(
        introspect.explain_eddy(eddy, analyze=True))
    assert "EXPLAIN eddy (kind=eddy)" in text
    assert "dominant orderings (source=traces):" in text
    assert "operators:" in text
    assert "selectivity" in text
    assert "latency (ingress->egress, sampled):" in text
    assert "flight recorder:" in text


def test_format_seconds_scales():
    assert introspect.format_seconds(0.0) == "0"
    assert introspect.format_seconds(2.5e-6) == "2.5us"
    assert introspect.format_seconds(3.2e-3) == "3.20ms"
    assert introspect.format_seconds(1.5) == "1.500s"


# ----------------------------------------------------- server EXPLAIN

def _two_join_server():
    srv = TelegraphCQServer()
    srv.create_stream(Schema.of("a", "x", "v"))
    srv.create_stream(Schema.of("b", "x", "w"))
    srv.create_stream(Schema.of("c", "x", "y"))
    cursor = srv.submit(
        "SELECT * FROM a, b, c "
        "WHERE a.x = b.x AND b.x = c.x AND a.v > 10")
    for i in range(30):
        srv.push("a", i % 5, 5 + i, timestamp=3 * i + 1)
        srv.push("b", i % 5, i, timestamp=3 * i + 2)
        srv.push("c", i % 5, i, timestamp=3 * i + 3)
    return srv, cursor


def test_server_explain_analyze_two_join_cacq():
    """The acceptance scenario: a live 2-join CACQ query explains with
    frequencies summing to 1, selectivities equal to the shared
    structures' own observations, and a nonzero latency p95."""
    tracing.configure_tracing(1)
    srv, cursor = _two_join_server()
    report = srv.explain(cursor.cursor_id, analyze=True)

    assert report["kind"] == "continuous"
    assert report["queries_sharing"] == 1
    assert report["streams"] == {"a": 30, "b": 30, "c": 30}

    total = sum(o["frequency"] for o in report["orderings"])
    assert total == pytest.approx(1.0, abs=1e-9)
    assert len(report["orderings"]) == 3       # one per footprint stream

    engine = srv.cacq
    by_name = {o["name"]: o for o in report["operators"]}
    gf = engine.filters[("a", "v")]
    assert abs(by_name["gf[a.v]"]["selectivity"] -
               gf.observed_selectivity()) < 1e-6
    # a.v = 5+i > 10 holds for i in 6..29: 24 of 30 arrivals.
    assert gf.observed_selectivity() == pytest.approx(0.8)
    for s in ("a", "b", "c"):
        stem = engine.stems[s]
        assert abs(by_name[f"stem[{s}]"]["selectivity"] -
                   stem.observed_hit_rate()) < 1e-6

    # Stream a's route: filter, then build, then the join steps in
    # breadth-first order over the chain a-b-c: a's rows probe b, and
    # the pairs probe c.
    route_a = next(o["order"] for o in report["orderings"]
                   if "gf[a.v]" in o["order"])
    assert route_a == ["gf[a.v]", "build[a]", "probe[stem[b]]",
                       "probe[stem[c]]"]
    route_b = next(o["order"] for o in report["orderings"]
                   if "build[b]" in o["order"])
    assert route_b == ["build[b]", "probe[stem[a]]", "probe[stem[c]]"]

    assert report["latency"]["count"] > 0
    assert report["latency"]["p95"] > 0.0

    # The report renders without error and names the shared route.
    text = introspect.render_explain(report)
    assert "CACQ shared route" in text


def test_server_explain_closed_query():
    srv, cursor = _two_join_server()
    srv.cancel(cursor)
    report = srv.explain(cursor)
    assert report["operators"] == []
    assert "query is closed; no live plan" in report["notes"]
    # A closed cursor is retired from the server: its handle still
    # explains, its id no longer resolves.
    from repro.errors import QueryError
    with pytest.raises(QueryError):
        srv.explain(cursor.cursor_id)


def test_server_explain_snapshot_cursor():
    srv = TelegraphCQServer()
    srv.create_table(Schema.of("emps", "name", "salary"),
                     rows=[("ada", 100), ("bob", 40)])
    cursor = srv.submit("SELECT * FROM emps WHERE salary > 50")
    report = srv.explain(cursor)
    assert report["kind"] == cursor.kind
    assert report["orderings"] == []
    assert any("predicate" in note for note in report["notes"])


def test_server_find_cursor_unknown_id():
    from repro.errors import QueryError
    srv = TelegraphCQServer()
    with pytest.raises(QueryError):
        srv.explain(999)


# ------------------------------------------------------------------ CLI

def test_cli_trace_explain_stats_session(tmp_path):
    shell = TelegraphShell()
    out = shell.run_script("""
        CREATE STREAM trades (sym, price);
        CREATE STREAM quotes (sym, bid);
        TRACE ON 1;
        SELECT * FROM trades, quotes WHERE trades.sym = quotes.sym;
        PUSH trades 'A', 10;
        PUSH quotes 'A', 9;
        PUSH quotes 'B', 1;
        EXPLAIN ANALYZE 1;
        STATS;
        TRACE OFF;
    """)
    assert "flight recorder on" in out[2]
    assert "cursor 1 open" in out[3]
    explain = out[7]
    assert "EXPLAIN cursor1 (kind=continuous)" in explain
    assert "gf" not in explain or "selectivity" in explain
    assert "dominant orderings" in explain
    assert "latency (ingress->egress, sampled):" in explain
    stats = out[8]
    assert "LATENCY (ingress->egress, sampled traces)" in stats
    assert "cursor1:" in stats
    assert out[9] == "tracing off; flight recorder off"


def test_cli_trace_dump_formats(tmp_path):
    shell = TelegraphShell()
    shell.run_script("""
        CREATE STREAM trades (sym, price);
        TRACE ON 1;
        SELECT * FROM trades WHERE price > 0;
        PUSH trades 'A', 10;
        PUSH trades 'B', 20;
    """)
    dump = shell.execute("TRACE DUMP 1;")
    assert len(dump.splitlines()) == 1
    assert json.loads(dump)["finished"] is True
    path = tmp_path / "traces.jsonl"
    assert shell.execute(f"TRACE DUMP {path};") == \
        f"wrote 2 trace(s) to {path}"
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["hops"] for line in lines)


def test_cli_explain_select_submits_query():
    shell = TelegraphShell()
    out = shell.run_script("""
        CREATE STREAM trades (sym, price);
        EXPLAIN SELECT * FROM trades WHERE price > 5;
    """)
    assert "kind=continuous" in out[1]
    # The submitted cursor is registered and can be explained again.
    assert "kind=continuous" in shell.execute("EXPLAIN 1;")


def test_cli_explain_errors():
    shell = TelegraphShell()
    assert shell.execute("EXPLAIN 42;") == "error: no cursor 42"
    assert shell.execute("EXPLAIN nonsense;").startswith("error:")
    assert shell.execute("TRACE SIDEWAYS;").startswith("error:")


def test_cli_trace_dump_empty():
    shell = TelegraphShell()
    assert shell.execute("TRACE DUMP;") == "(no traces)"
