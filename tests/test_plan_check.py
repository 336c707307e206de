"""The static plan verifier: every diagnostic code, the admission gate
in ``submit``, and a property test over random predicate sets."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_check import (AdmissionContext, check_flow_graph,
                                       check_query, check_spec)
from repro.analysis.report import (Diagnostic, DiagnosticReport,
                                   PlanCheckWarning, severity_of)
from repro.core.engine import TelegraphCQServer
from repro.core.tuples import Schema
from repro.errors import PlanCheckError
from repro.query.parser import parse


def codes_of(query):
    return [d.code for d in check_spec(parse(query))]


# -- predicate satisfiability (TCQ101/102/201/202/203) -------------------------

def test_contradictory_range_is_tcq101():
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE x > 5 AND x < 3")


def test_contradictory_equalities():
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE x = 1 AND x = 2")


def test_equality_outside_range():
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE x = 10 AND x < 5")


def test_eq_vs_neq():
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE x != 3 AND x = 3")


def test_empty_point_range():
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE x >= 5 AND x < 5")


def test_closed_point_range_is_fine():
    assert codes_of("SELECT * FROM s WHERE x >= 5 AND x <= 5") == []


def test_satisfiable_conjunction_is_clean():
    assert codes_of(
        "SELECT * FROM s WHERE x > 1 AND y < 9 AND z = 'a'") == []


def test_or_branches_are_not_analysed():
    # One impossible disjunct does not make the query impossible.
    assert codes_of(
        "SELECT * FROM s WHERE (x > 5 AND x < 3) OR x = 7") == []


def test_mixed_type_columns_skip_ordering():
    assert codes_of("SELECT * FROM s WHERE x > 5 AND x < 'zzz'") == []


def test_duplicate_factor_is_tcq201():
    report = check_spec(parse("SELECT * FROM s WHERE x > 5 AND x > 5"))
    assert [d.code for d in report] == ["TCQ201"]
    assert severity_of("TCQ201") == "warning"


def test_subsumed_factor_is_tcq202():
    assert "TCQ202" in codes_of("SELECT * FROM s WHERE x > 5 AND x > 2")


def test_equality_subsumes_bounds():
    assert "TCQ202" in codes_of("SELECT * FROM s WHERE x > 2 AND x = 5")


def test_self_comparison_trivial_and_impossible():
    assert "TCQ203" in codes_of("SELECT * FROM s WHERE s.x = s.x")
    assert "TCQ101" in codes_of("SELECT * FROM s WHERE s.x != s.x")


def test_impossible_equality_chain_is_tcq102():
    q = ("SELECT * FROM a, b WHERE a.x = b.y AND a.x = 1 AND b.y = 2")
    assert "TCQ102" in codes_of(q)


def test_chain_pin_outside_remote_range():
    q = ("SELECT * FROM a, b WHERE a.x = b.y AND a.x = 10 AND b.y < 5")
    assert "TCQ102" in codes_of(q)


def test_consistent_chain_is_clean():
    q = ("SELECT * FROM a, b WHERE a.x = b.y AND a.x = 1 AND b.y = 1")
    assert codes_of(q) == []


def test_span_points_into_query_text():
    query = "SELECT * FROM s WHERE x > 5 AND x < 3"
    diag = next(d for d in check_spec(parse(query)) if d.code == "TCQ101")
    start, end = diag.span
    assert query[start:end] == "x < 3"
    rendered = diag.render()
    assert "^" in rendered and "x < 3" in rendered


# -- window analysis (TCQ105/106/206) ------------------------------------------

def test_loop_never_entered():
    q = ("SELECT * FROM s for (t = 10; t < 5; t++) "
         "{ WindowIs(s, t - 5, t); }")
    assert codes_of(q) == ["TCQ105"]


def test_window_empty_every_iteration():
    q = ("SELECT * FROM s for (t = 1; t <= 50; t++) "
         "{ WindowIs(s, t, t - 2); }")
    assert codes_of(q) == ["TCQ105"]


def test_stuck_loop_is_tcq106():
    q = ("SELECT * FROM s for (t = 1; t <= 50; t += 0) "
         "{ WindowIs(s, t, t + 1); }")
    assert codes_of(q) == ["TCQ106"]


def test_slide_gap_is_tcq206_warning():
    q = ("SELECT * FROM s for (t = 1; t <= 100; t += 10) "
         "{ WindowIs(s, t, t + 2); }")
    assert codes_of(q) == ["TCQ206"]
    assert severity_of("TCQ206") == "warning"


def test_hop_past_the_window_width_is_tcq206():
    """A hopping window of width 2 and hop 5 leaves gaps; width 5 and
    hop 5 tiles the stream."""
    gappy = ("SELECT * FROM s for (t = 2; t < 20; t += 5) "
             "{ WindowIs(s, t - 1, t); }")
    dense = ("SELECT * FROM s for (t = 5; t < 20; t += 5) "
             "{ WindowIs(s, t - 4, t); }")
    assert codes_of(gappy) == ["TCQ206"]
    assert codes_of(dense) == []


def test_touching_hop_has_no_gap():
    q = ("SELECT * FROM s for (t = 1; t <= 100; t += 3) "
         "{ WindowIs(s, t, t + 2); }")
    assert codes_of(q) == []


def test_width_one_window_is_legal():
    q = "SELECT * FROM s for (t = 1; t <= 9; t++) { WindowIs(s, t, t); }"
    assert codes_of(q) == []


def test_decreasing_loop_is_legal():
    q = ("SELECT * FROM s for (t = 100; t >= 1; t--) "
         "{ WindowIs(s, t, t); }")
    assert codes_of(q) == []


def test_free_variable_judged_translation_invariant():
    q = ("SELECT * FROM s for (t = ST; t <= ST + 100; t++) "
         "{ WindowIs(s, t - 10, t); }")
    assert codes_of(q) == []


# -- join-graph connectivity (TCQ103) ------------------------------------------

@pytest.fixture
def server():
    s = TelegraphCQServer()
    s.create_stream(Schema.of("trades", "sym", "price"))
    s.create_stream(Schema.of("news", "sym", "urgency"))
    s.create_stream(Schema.of("quotes", "sym", "bid"))
    return s


def test_unpaired_join_rejected(server):
    with pytest.raises(PlanCheckError) as exc:
        server.submit(
            "SELECT trades.sym FROM trades, news WHERE trades.price > 5")
    assert [d.code for d in exc.value.diagnostics] == ["TCQ103"]
    diag = exc.value.diagnostics[0]
    start, end = diag.span
    assert diag.source[start:end] == "news"


def test_three_way_with_stranded_stream(server):
    report = check_query(
        "SELECT trades.sym FROM trades, news, quotes "
        "WHERE trades.sym = news.sym AND quotes.bid > 1",
        server.catalog)
    assert report.codes() == ["TCQ103"]
    assert "quotes" in report.errors[0].message


def test_connected_join_admitted(server):
    cursor = server.submit(
        "SELECT trades.sym FROM trades, news "
        "WHERE trades.sym = news.sym")
    assert cursor.diagnostics == []


def test_windowed_join_without_equijoin_is_not_tcq103(server):
    # Windowed queries evaluate nested-loop joins; no SteM pairing
    # applies, so a cross join over windows is legal.
    report = check_query(
        "SELECT trades.sym FROM trades, news WHERE trades.price > 5 "
        "for (t = 1; t <= 3; t++) { WindowIs(trades, t, t); "
        "WindowIs(news, t, t); }",
        server.catalog)
    assert report.codes() == []


# -- the admission gate in submit ----------------------------------------------

def test_submit_rejects_contradiction_with_span(server):
    query = "SELECT * FROM trades WHERE price > 5 AND price < 3"
    with pytest.raises(PlanCheckError) as exc:
        server.submit(query)
    diag = exc.value.diagnostics[0]
    assert diag.code == "TCQ101"
    start, end = diag.span
    assert query[start:end] == "price < 3"


def test_allow_unsafe_bypasses_errors(server):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cursor = server.submit(
            "SELECT * FROM trades WHERE price > 5 AND price < 3",
            allow_unsafe=True)
    assert [d.code for d in cursor.diagnostics] == ["TCQ101"]
    assert any(issubclass(w.category, PlanCheckWarning) for w in caught)
    # The query runs (vacuously): pushes simply never match.
    server.push("trades", "A", 4.0)
    server.run_until_quiescent()
    assert cursor.fetch() == []


def test_warnings_surface_but_admit(server):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cursor = server.submit(
            "SELECT * FROM trades WHERE price > 5 AND price > 5")
    assert [d.code for d in cursor.diagnostics] == ["TCQ201"]
    assert any(issubclass(w.category, PlanCheckWarning) for w in caught)
    server.push("trades", "A", 9.0)
    server.run_until_quiescent()
    assert len(cursor.fetch()) == 1


def _tcq205(standing, sql="SELECT * FROM s, r WHERE s.x = r.x"):
    server = TelegraphCQServer()
    server.create_stream(Schema.of("s", "x"))
    server.create_stream(Schema.of("r", "x"))
    context = AdmissionContext(standing_queries=standing)
    report = check_query(sql, server.catalog, context)
    return [d for d in report.diagnostics if d.code == "TCQ205"]


def test_lineage_capacity_warns_tcq205_when_first_crossed():
    assert not _tcq205(63)
    (diag,) = _tcq205(64)
    # What still scales with the query count: bitmap width, not a
    # per-tuple walk, and no longer a rebuild after every admit/cancel.
    assert "as wide as the query ids" in diag.message
    assert "mask OR" in diag.message
    assert "walks" not in diag.message and "rebuild" not in diag.message
    # An engine already past the capacity was warned about when it crossed.
    assert not _tcq205(65)
    assert not _tcq205(1000)
    # A windowed query does not join the shared engine.
    assert not _tcq205(64, "SELECT COUNT(*) FROM s "
                           "for (t = 4; t <= 8; t += 4) "
                           "{ WindowIs(s, t - 3, t); }")
    assert AdmissionContext().standing_queries == 0


def test_lineage_capacity_warning_is_not_a_storm(server):
    """Past 64 standing queries every submit used to warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cursors = [server.submit(f"SELECT * FROM trades WHERE price > {i}")
                   for i in range(80)]
    storm = [w for w in caught if "TCQ205" in str(w.message)]
    assert len(storm) == 1
    assert [i for i, c in enumerate(cursors)
            if "TCQ205" in [d.code for d in c.diagnostics]] == [64]


def test_parse_failure_becomes_tcq100(server):
    report = check_query("SELEC nonsense", server.catalog)
    assert report.codes() == ["TCQ100"]
    assert report.errors


# -- dataflow reachability (TCQ104) --------------------------------------------

def test_flow_graph_unreachable_and_dead_end():
    diags = check_flow_graph(
        nodes=["src", "mid", "orphan", "sink"],
        edges=[("src", "mid"), ("mid", "sink")],
        ingresses=["src"], egresses=["sink"])
    assert [d.code for d in diags] == ["TCQ104"]
    assert "orphan" in diags[0].message


def test_fjord_check_flags_unwired_module():
    from repro.fjords.fjord import Fjord
    from repro.fjords.module import Module, SinkModule, SourceModule

    class Src(SourceModule):
        def generate(self, batch):
            self.exhausted = True
            return []

    class Pass(Module):
        def __init__(self, name):
            super().__init__(name=name, arity_in=1, arity_out=1)

        def process(self, item, port):
            return [item]

    wired = Fjord("wired")
    wired.connect(Src("s"), SinkModule("k"))
    assert wired.check().ok

    broken = Fjord("broken")
    broken.connect(Src("s"), SinkModule("k"))
    broken.add(Pass("orphan"))
    assert "TCQ104" in broken.check().codes()


# -- report plumbing -----------------------------------------------------------

def test_report_partitions_and_render():
    report = DiagnosticReport([
        Diagnostic("TCQ101", "a"), Diagnostic("TCQ201", "b"),
        Diagnostic("TCQ301", "c")])
    assert len(report.errors) == len(report.warnings) == \
        len(report.lints) == 1
    assert not report.ok
    text = report.render()
    assert "1 error, 1 warning, 1 lint" in text


# -- property test: satisfiable sets pass, contradictions are caught -----------

_COLS = ("a", "b", "c")


@st.composite
def satisfiable_predicates(draw):
    """Per column, an interval [lo, hi] with lo <= hi, expressed as a
    pair of non-strict bound factors — always satisfiable (x = lo)."""
    parts = []
    for col in draw(st.sets(st.sampled_from(_COLS), min_size=1)):
        lo = draw(st.integers(-50, 50))
        hi = draw(st.integers(lo, 51))
        parts.append(f"{col} >= {lo}")
        parts.append(f"{col} <= {hi}")
    return " AND ".join(parts)


@settings(max_examples=60, deadline=None)
@given(satisfiable_predicates())
def test_satisfiable_sets_carry_no_errors(clause):
    report = check_spec(parse(f"SELECT * FROM s WHERE {clause}"))
    assert not [d for d in report if d.is_error], clause


@settings(max_examples=60, deadline=None)
@given(satisfiable_predicates(),
       st.sampled_from(_COLS), st.integers(-50, 51))
def test_injected_contradiction_is_rejected(clause, col, pivot):
    # x < pivot AND x > pivot is unsatisfiable whatever else holds.
    poisoned = f"{clause} AND {col} < {pivot} AND {col} > {pivot}"
    diags = check_spec(parse(f"SELECT * FROM s WHERE {poisoned}"))
    errors = [d.code for d in diags if d.is_error]
    assert errors and set(errors) <= {"TCQ101", "TCQ102"}, poisoned


# -- CLI CHECK -----------------------------------------------------------------

def test_cli_check_renders_without_submitting():
    from repro.cli import TelegraphShell
    shell = TelegraphShell()
    shell.execute("CREATE STREAM s (x, y);")
    out = shell.execute("CHECK SELECT * FROM s WHERE x > 5 AND x < 3;")
    assert "TCQ101" in out and "^" in out
    assert shell.cursors == {}          # nothing was admitted
    assert shell.execute("CHECK SELECT * FROM s WHERE x > 5;") == \
        "ok: no diagnostics"


def test_shell_splits_windowed_statements_whole():
    # The for-loop's internal semicolons must not split the statement.
    from repro.cli import TelegraphShell
    shell = TelegraphShell()
    responses = shell.run_script(
        "CREATE STREAM s (x);\n"
        "CHECK SELECT * FROM s for (t = 10; t < 5; t++) "
        "{ WindowIs(s, t - 2, t); };\n"
        "SELECT count(*) FROM s for (t = 1; t <= 2; t++) "
        "{ WindowIs(s, t, t); };\n")
    assert "TCQ105" in responses[1]
    assert "cursor 1 open" in responses[2]
