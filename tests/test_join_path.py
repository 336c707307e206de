"""One join path: windowed and snapshot plans join through SteMs, and
``Schema.join`` owns the schema of ``a ⋈ b``.

* parity — :meth:`WindowedPlan.evaluate` against a plain-python oracle
  (nested loops over row lists) on result *sequences* and column names;
* count guards (no clocks) — a windowed equijoin builds O(1) schemas per
  plan, a CACQ equijoin builds each match tuple once;
* door level — the join is visible in ``conn.telemetry()`` as SteM
  probes, under one series per plan binding however many windows fire,
  and a sampled row's trace does not grow with the windows it sits in.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import repro.monitor.tracing as tracing
from repro.client import connect
from repro.core.tuples import Schema, Tuple
from repro.monitor.telemetry import MetricRegistry, set_registry
from repro.query.catalog import Catalog
from repro.query.optimizer import compile_query
from repro.query.parser import parse

A = Schema.of("a", "k", "v")
B = Schema.of("b", "k", "w")
C = Schema.of("c", "k", "u")
D = Schema.of("d", "k", "z")          # a static table


def catalog():
    cat = Catalog()
    for schema in (A, B, C):
        cat.create_stream(schema)
    cat.create_table(D)
    return cat


def windows(*bindings):
    body = " ".join(f"WindowIs({b}, 1, t);" for b in bindings)
    return f"for (t = 1; t < 2; t++) {{ {body} }}"


#: name -> (SQL, FROM bindings as (binding, object), result column names,
#: the WHERE clause as a predicate over one value row per binding).
CASES = {
    "two bindings": (
        f"SELECT * FROM a, b WHERE a.k = b.k {windows('a', 'b')}",
        [("a", "a"), ("b", "b")],
        ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: a[0] == b[0]),
    "three bindings": (
        "SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k "
        + windows("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("c", "c")],
        ["a.k", "a.v", "b.k", "b.w", "c.k", "c.u"],
        lambda a, b, c: a[0] == b[0] and b[0] == c[0]),
    "third binding joins the first": (
        "SELECT * FROM a, b, c WHERE a.k = b.k AND a.v = c.u "
        + windows("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("c", "c")],
        ["a.k", "a.v", "b.k", "b.w", "c.k", "c.u"],
        lambda a, b, c: a[0] == b[0] and a[1] == c[1]),
    "two factors on one pair": (
        f"SELECT * FROM a, b WHERE a.k = b.k AND a.v = b.w "
        f"{windows('a', 'b')}",
        [("a", "a"), ("b", "b")],
        ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: a[0] == b[0] and a[1] == b[1]),
    "no equijoin factor": (
        f"SELECT * FROM a, b WHERE a.v < b.w {windows('a', 'b')}",
        [("a", "a"), ("b", "b")],
        ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: a[1] < b[1]),
    "cross product": (
        f"SELECT * FROM a, b {windows('a', 'b')}",
        [("a", "a"), ("b", "b")],
        ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: True),
    "local filter beside the join": (
        f"SELECT * FROM a, b WHERE a.k = b.k AND b.w > 1 "
        f"{windows('a', 'b')}",
        [("a", "a"), ("b", "b")],
        ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: a[0] == b[0] and b[1] > 1),
    "self-join under aliases": (
        f"SELECT * FROM a AS x, a AS y WHERE x.k = y.k AND x.v < y.v "
        f"{windows('x', 'y')}",
        [("x", "a"), ("y", "a")],
        ["x.k", "x.v", "y.k", "y.v"],
        lambda x, y: x[0] == y[0] and x[1] < y[1]),
    "static table": (
        f"SELECT * FROM a, d WHERE a.k = d.k {windows('a')}",
        [("a", "a"), ("d", "d")],
        ["a.k", "a.v", "d.k", "d.z"],
        lambda a, d: a[0] == d[0]),
}

#: 0 to 6 rows a side: both sides of the size switch the optimizer's
#: private join used to have (hash join above 4 rows, nested loops up
#: to 4), empty windows included.
rows_of = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                   max_size=6)


def oracle(where, sides):
    """Nested loops, leftmost binding outermost."""
    return [tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*sides) if where(*combo)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.lists(rows_of, min_size=3,
                                                max_size=3), st.data())
def test_windowed_plan_equals_nested_loops(case, sides, data):
    sql, bindings, names, where = CASES[case]
    cat = catalog()
    plan = compile_query(parse(sql), cat).window_plan
    sides = sides[:len(bindings)]
    # The same plan evaluates window after window: a second window's
    # answer must not remember the first's rows.
    for window in (sides, [data.draw(rows_of) for _ in bindings]):
        window_data = {}
        for (binding, obj), rows in zip(bindings, window):
            schema = cat.lookup(obj).schema if binding == obj \
                else cat.alias_schema(obj, binding)
            window_data[binding] = [Tuple(schema, row, timestamp=ts)
                                    for ts, row in enumerate(rows, 1)]
        out = plan.evaluate(window_data)
        assert [t.values for t in out] == oracle(where, window)
        assert all(t.schema.column_names() == names for t in out)


@settings(max_examples=40, deadline=None)
@given(rows_of, rows_of)
def test_snapshot_query_equals_nested_loops(left, right):
    with connect() as conn:
        conn.create_table("p", "k", "z")
        conn.create_table("q", "k", "y")
        for row in left:
            conn.insert("p", *row)
        for row in right:
            conn.insert("q", *row)
        got = conn.submit("SELECT * FROM p, q WHERE p.k = q.k").fetch()
    assert [t.values for t in got] == oracle(
        lambda p, q: p[0] == q[0], [left, right])
    assert all(t.schema.column_names() == ["p.k", "p.z", "q.k", "q.y"]
               for t in got)


# -- Schema.join owns the joined schema ------------------------------------

class TestSchemaJoinMemo:
    def test_one_schema_per_pair(self):
        assert A.join(B) is A.join(B)

    def test_equal_to_a_freshly_constructed_join(self):
        fresh = Schema.of("a", "k", "v").join(Schema.of("b", "k", "w"))
        assert A.join(B) == fresh and A.join(B) is not fresh
        assert A.join(B).column_names() == ["a.k", "a.v", "b.k", "b.w"]
        assert A.join(B).sources == frozenset({"a", "b"})

    def test_order_matters(self):
        assert A.join(B) is not B.join(A)
        assert B.join(A).column_names() == ["b.k", "b.w", "a.k", "a.v"]

    def test_alias_schemas_are_distinct_from_their_base(self):
        cat = catalog()
        x = cat.alias_schema("a", "x")
        assert x is cat.alias_schema("a", "x")
        assert x is not cat.alias_schema("a", "y")
        assert x.join(B) is x.join(B) and x.join(B) is not A.join(B)
        assert x.join(B).column_names() == ["x.k", "x.v", "b.k", "b.w"]

    def test_dropped_object_forgets_its_aliases(self):
        cat = catalog()
        old = cat.alias_schema("a", "x")
        cat.drop("a")
        cat.create_stream(Schema.of("a", "k", "v", "extra"))
        assert cat.alias_schema("a", "x") is not old
        assert len(cat.alias_schema("a", "x")) == 3

    def test_equal_right_sides_do_not_share_a_wrong_schema(self):
        """Keyed by the schema objects: two right sides over the same
        sources with different columns each get their own join."""
        wide, narrow = Schema.of("b", "k", "w"), Schema.of("b", "k")
        assert len(A.join(wide)) == 4 and len(A.join(narrow)) == 3


# -- count guards ---------------------------------------------------------------

@pytest.fixture
def private_registry():
    previous = set_registry(MetricRegistry())
    yield
    set_registry(previous)


def counting(monkeypatch, cls):
    """Count ``cls.__init__`` calls from here on."""
    calls = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


WINDOWED_JOIN = """
    SELECT * FROM a, b WHERE a.k = b.k
    for (t = 4; t <= {last}; t++) {{
        WindowIs(a, {left}, t); WindowIs(b, {left}, t);
    }}"""


def run_windowed_join(conn, last, left="t - 3"):
    conn.create_stream("a", "k", "v")
    conn.create_stream("b", "k", "w")
    cursor = conn.submit(WINDOWED_JOIN.format(last=last, left=left))
    for ts in range(1, last + 2):
        conn.push_rows("a", [(ts % 3, ts), (ts % 2, -ts)], timestamp=2 * ts)
        conn.push_rows("b", [(ts % 3, ts)], timestamp=ts)
    conn.run()
    return cursor


def test_windowed_join_builds_schemas_per_plan_not_per_match(
        monkeypatch, private_registry):
    made = {}
    for last in (8, 40):
        with connect() as conn:
            schemas = counting(monkeypatch, Schema)
            cursor = run_windowed_join(conn, last)
            made[last] = len(schemas)
            monkeypatch.undo()
            windows_out = cursor.fetch_windows()
        assert len(windows_out) == last - 3
        assert sum(len(rows) for _t, rows in windows_out) > last
    # Five times the windows (and matches): not one schema more.
    assert made[8] == made[40] <= 8


def test_cacq_equijoin_builds_each_match_once(monkeypatch,
                                              private_registry):
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        cursor = conn.submit("SELECT * FROM a, b WHERE a.k = b.k")
        tuples = counting(monkeypatch, Tuple)
        conn.push_rows("a", [(i % 4, i) for i in range(20)])
        conn.push_rows("b", [(i % 4, i) for i in range(20)])
        built = len(tuples)
        monkeypatch.undo()
        matches = len(cursor.fetch())
    assert matches == 100
    assert built == 40      # the base rows; each match is a value Row


# -- door level ------------------------------------------------------------------

def stem_series(snap, name):
    return [s for s in snap.samples
            if s.name == name and s.labels.get("stem", "").startswith("stem[")]


@pytest.mark.parametrize("last", [6, 30])
def test_windowed_join_shows_as_stem_probes_one_series_per_binding(
        last, private_registry):
    with connect() as conn:
        cursor = run_windowed_join(conn, last)
        snap = conn.telemetry()
        assert len(cursor.fetch_windows()) == last - 3
    probes, builds = (
        {s.labels["stem"].split("#")[0]: s.value
         for s in stem_series(snap, family)}
        for family in ("tcq_stem_probes_total", "tcq_stem_builds_total"))
    # Each binding keeps its standing rows in one SteM: one series per
    # binding, for 3 windows as for 27.  A row built into one SteM
    # probes the other once, when it arrives, whatever windows it sits in.
    assert list(probes) == ["stem[a]", "stem[b]"]
    assert probes["stem[a]"] == builds["stem[b]"] > 0
    assert probes["stem[b]"] == builds["stem[a]"] > 0
    for family in ("tcq_stem_builds_total", "tcq_stem_size",
                   "tcq_stem_evictions_total"):
        assert len(stem_series(snap, family)) == 2


def test_sampled_rows_do_not_collect_a_hop_per_window(private_registry):
    """Landmark windows: the first rows sit in every window, and are
    built into (or probe) the window SteM once for each; their traces
    must not grow with the number of windows."""
    hops = {}
    tracing.configure_tracing(sample_every=1)
    try:
        for last in (8, 40):
            with connect() as conn:
                run_windowed_join(conn, last, left="1")
                stores = conn.server.stores
                hops[last] = max(len(t.trace.hops) for s in ("a", "b")
                                 for t in stores[s].scan(0, 1 << 40))
    finally:
        tracing.configure_tracing(0)
        tracing.TRACER.reset()
    assert hops[8] == hops[40] <= 6
