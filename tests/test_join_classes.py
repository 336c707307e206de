"""Continuous joins run on bound join steps, one body for every query
of a join class.

CACQ groups its join queries by footprint and equijoin factors; an
arriving row runs each class it is alive for once, probing the shared
SteMs in breadth-first join order from its stream, and lineage says
which of the class's queries each match is for.  Checked here:

* door regressions (local and over the wire) — a three-way chain whose
  middle row arrives last answers once, a cycle answers only the true
  match, a join's rows come in FROM order whichever side arrives last,
  and the EXPLAIN scenario equals nested loops;
* a count guard (no clocks) — Q queries in one class probe a SteM once
  per step run, not once per query, and build no tuple per match;
* admission — a join on an unknown column is refused before any shared
  state moves;
* a property against a nested-loop oracle — chains, triangles and
  stars over up to four streams, several queries per class and a second
  class on other columns, random arrival order, admit and cancel
  between pushes: a query gets exactly the matches whose every row
  arrived while it stood.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import LocalConnection, connect
from repro.core import tuples
from repro.core.cacq import CACQEngine
from repro.core.tuples import Schema
from repro.errors import QueryError
from repro.monitor.telemetry import MetricRegistry, set_registry
from repro.net.service import TelegraphCQService
from repro.query.predicates import ColumnComparison, Comparison


@pytest.fixture(params=["local",
                        pytest.param("network", marks=pytest.mark.net)])
def conn(request):
    if request.param == "local":
        with LocalConnection(client="t") as c:
            yield c
        return
    service = TelegraphCQService(admin_port=None)
    service.run_in_thread()
    try:
        with connect(f"tcp://127.0.0.1:{service.port}", client="t") as c:
            yield c
    finally:
        service.close()


@pytest.fixture
def private_registry():
    previous = set_registry(MetricRegistry())
    yield
    set_registry(previous)


CHAIN = "SELECT * FROM S, T, U WHERE S.a = T.a AND T.b = U.b"


@pytest.mark.parametrize("last", ["S", "T", "U"])
def test_a_three_way_chain_answers_each_match_once(conn, last):
    """With the middle stream's row last, T's row probes S and the pair
    probes U: one match, not one per partner T probed."""
    conn.create_stream("S", "a")
    conn.create_stream("T", "a", "b")
    conn.create_stream("U", "b")
    cursor = conn.submit(CHAIN)
    rows = {"S": [(1,)], "T": [(1, 2)], "U": [(2,)]}
    for stream in [s for s in "STU" if s != last] + [last]:
        conn.push_rows(stream, rows[stream])
    assert [row.values for row in cursor.fetch()] == [(1, 1, 2, 2)]


def test_a_cycle_answers_only_the_true_match(conn):
    """The factor closing the cycle is checked on every match: a U row
    with the wrong ``c`` is no match, and the true one is found once."""
    conn.create_stream("S", "a", "c")
    conn.create_stream("T", "a", "b")
    conn.create_stream("U", "b", "c")
    cursor = conn.submit("SELECT * FROM S, T, U WHERE S.a = T.a "
                         "AND T.b = U.b AND S.c = U.c")
    conn.push_rows("S", [(1, 5)])
    conn.push_rows("U", [(2, 5), (2, 6)])
    conn.push_rows("T", [(1, 2)])
    assert [row.values for row in cursor.fetch()] == [(1, 5, 1, 2, 2, 5)]


def test_join_rows_come_in_from_order_whichever_side_arrives_last(conn):
    conn.create_stream("S", "k", "v")
    conn.create_stream("T", "k", "w")
    st_cursor = conn.submit("SELECT * FROM S, T WHERE S.k = T.k")
    # The same class written the other way round: its rows are put in
    # its own FROM order.
    ts_cursor = conn.submit("SELECT * FROM T, S WHERE T.k = S.k")
    conn.push_rows("S", [(1, 10)])
    conn.push_rows("T", [(1, 20)])
    conn.push_rows("S", [(1, 11)])
    st_rows, ts_rows = st_cursor.fetch(), ts_cursor.fetch()
    assert [row.values for row in st_rows] == [(1, 10, 1, 20),
                                               (1, 11, 1, 20)]
    assert {tuple(row.schema.column_names()) for row in st_rows} == \
        {("S.k", "S.v", "T.k", "T.w")}
    assert [row.values for row in ts_rows] == [(1, 20, 1, 10),
                                               (1, 20, 1, 11)]
    assert {tuple(row.schema.column_names()) for row in ts_rows} == \
        {("T.k", "T.w", "S.k", "S.v")}


def test_the_explain_scenario_equals_nested_loops(conn):
    """The two-join chain the EXPLAIN tests drive, against nested loops
    over the rows pushed."""
    conn.create_stream("a", "x", "v")
    conn.create_stream("b", "x", "w")
    conn.create_stream("c", "x", "y")
    cursor = conn.submit("SELECT * FROM a, b, c "
                         "WHERE a.x = b.x AND b.x = c.x AND a.v > 10")
    pushed = {"a": [], "b": [], "c": []}
    for i in range(30):
        for stream, row in (("a", (i % 5, 5 + i)), ("b", (i % 5, i)),
                            ("c", (i % 5, i))):
            conn.push(stream, *row)
            pushed[stream].append(row)
    want = sorted(a + b + c for a in pushed["a"] for b in pushed["b"]
                  for c in pushed["c"]
                  if a[0] == b[0] == c[0] and a[1] > 10)
    got = sorted(row.values for row in cursor.fetch())
    assert len(want) == 864
    assert got == want


def test_one_class_probes_once_per_step_for_all_its_queries(
        private_registry):
    """Q queries sharing ``S.k = T.k`` that differ in a band filter:
    every arriving row some query keeps probes the partner SteM once
    (not Q times), and the only tuples built are the rows the SteMs
    store -- each match is delivered as a value Row."""
    q, n = 8, 400
    with connect() as conn:
        conn.create_stream("S", "k", "v")
        conn.create_stream("T", "k", "w")
        cursors = [conn.submit(f"SELECT * FROM S, T WHERE S.k = T.k "
                               f"AND S.v > {i}") for i in range(q)]
        rows = [(i % 10, i % 12 - 2) for i in range(n)]
        stems = conn.server.cacq.stems
        before = next(tuples._tuple_ids)
        for i in range(0, n, 25):
            conn.push_rows("S", rows[i:i + 25])
            conn.push_rows("T", rows[i:i + 25])
        drawn = next(tuples._tuple_ids) - before - 1
        results = [cursor.fetch() for cursor in cursors]
        stored = sum(len(stem) for stem in stems.values())
        probes = sum(stem.probes for stem in stems.values())
    kept_s = sum(1 for _k, v in rows if v > 0)
    assert stored == kept_s + n
    assert probes == stored      # one step per arriving row
    assert drawn == stored
    assert {type(row) for rows_ in results for row in rows_} == {tuples.Row}
    for i, got in enumerate(results):
        want = sum(1 for k, v in rows if v > i for k2, _w in rows
                   if k2 == k)
        assert len(got) == want


def test_only_an_intermediate_prober_is_joined_into_a_tuple(
        private_registry):
    """A three-way chain joins each (S, T) pair once into a tuple to
    probe U with; the full matches are rows."""
    with connect() as conn:
        conn.create_stream("S", "a")
        conn.create_stream("T", "a", "b")
        conn.create_stream("U", "b")
        cursor = conn.submit(CHAIN)
        conn.push_rows("S", [(1,), (1,)])
        conn.push_rows("U", [(2,), (2,), (2,)])
        before = next(tuples._tuple_ids)
        conn.push_rows("T", [(1, 2)])
        drawn = next(tuples._tuple_ids) - before - 1
        rows = cursor.fetch()
    assert len(rows) == 6 and {type(row) for row in rows} == {tuples.Row}
    assert drawn == 1 + 2       # T's row, and the two (T, S) probers


def test_a_join_on_an_unknown_column_is_refused_before_state_moves():
    """Binding the class's steps would index the unknown column on a
    shared SteM; the query is refused first, and the stream it names
    keeps working."""
    engine = CACQEngine()
    engine.register_stream(Schema.of("a", "k"))
    engine.register_stream(Schema.of("b", "k"))
    selection = engine.add_query(["a"], Comparison("k", ">", 0))
    with pytest.raises(QueryError, match="unknown column 'a.nope'"):
        engine.add_query(["b", "a"], ColumnComparison("a.nope", "==", "b.k"))
    assert not engine.join_classes and not engine.stems
    engine.push("a", k=1)
    assert [row.values for row in selection.results] == [(1,)]


def _a_and_b(conn):
    conn.create_stream("a", "k", "v")
    conn.create_stream("b", "k", "w")
    return conn.server.cacq


def test_a_steM_stores_only_rows_some_join_class_keeps():
    """A selection over the stream of a filtered join: every row it
    passes is delivered, but only the 9 the join keeps are stored."""
    with connect() as conn:
        engine = _a_and_b(conn)
        join = conn.submit("SELECT * FROM a, b "
                           "WHERE a.k = b.k AND a.v > 90")
        selection = conn.submit("SELECT * FROM a WHERE v > 0")
        conn.push_rows("a", [(v % 7, v) for v in range(100)])
        assert len(selection.fetch()) == 99
        assert len(engine.stems["a"]) == 9
        conn.push_rows("b", [(k, 0) for k in range(7)])
        assert len(join.fetch()) == 9


def test_steMs_and_indexes_live_only_while_a_join_class_reads_them():
    with connect() as conn:
        engine = _a_and_b(conn)
        on_k = conn.submit("SELECT * FROM a, b WHERE a.k = b.k")
        on_v = conn.submit("SELECT * FROM a, b WHERE a.v = b.w")
        assert set(engine.stems["a"]._indexes) == {"a.k", "a.v"}
        conn.cancel(on_v)
        assert set(engine.stems["a"]._indexes) == {"a.k"}
        assert set(engine.stems["b"]._indexes) == {"b.k"}
        conn.push_rows("a", [(1, 1)])
        conn.cancel(on_k)
        assert engine.stems == {}
        selection = conn.submit("SELECT * FROM a WHERE v > 0")
        conn.push_rows("a", [(1, 2)])
        assert engine.stems == {} and len(selection.fetch()) == 1


# -- property: the shared engine against nested loops ------------------------

STREAMS = ("S", "T", "U", "V")
COLUMNS = ("a", "b", "v")

#: join graphs: (footprint, equijoin factors as (left, right) columns).
SHAPES = {
    "pair on a": ("ST", [("S.a", "T.a")]),
    "pair on b": ("ST", [("S.b", "T.b")]),
    "chain": ("STU", [("S.a", "T.a"), ("T.b", "U.b")]),
    "triangle": ("STU", [("S.a", "T.a"), ("T.b", "U.b"), ("U.a", "S.b")]),
    "star": ("STUV", [("S.a", "T.a"), ("S.b", "U.b"), ("S.a", "V.b")]),
}

_QUERY = st.tuples(
    st.sampled_from(sorted(SHAPES)),
    st.integers(0, 23),                  # FROM order: a permutation
    st.booleans(),                       # write factors right to left
    st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 3))))
_PUSH = st.tuples(st.just("push"), st.sampled_from(STREAMS),
                  st.tuples(st.integers(0, 1), st.integers(0, 1),
                            st.integers(0, 4)))
#: mostly pushes (two keys per join column, so rows do meet), with an
#: admit or a cancel now and then.
_OPS = st.lists(st.one_of(
    _PUSH, _PUSH, _PUSH, _PUSH,
    st.tuples(st.just("admit"), _QUERY),
    st.tuples(st.just("cancel"), st.integers(0, 30))),
    min_size=16, max_size=60)


def _query(spec):
    """(SQL, FROM order, check over {stream: values})."""
    shape, perm, flipped, band = spec
    footprint, factors = SHAPES[shape]
    order = list(list(itertools.permutations(footprint))[
        perm % len(list(itertools.permutations(footprint)))])
    where = [f"{r} = {l}" if flipped else f"{l} = {r}" for l, r in factors]
    if band is not None:
        stream = footprint[band[0] % len(footprint)]
        where.append(f"{stream}.v > {band[1]}")

    def value(rows, column):
        stream, name = column.split(".")
        return rows[stream][COLUMNS.index(name)]

    def check(rows):
        return all(value(rows, l) == value(rows, r) for l, r in factors) \
            and (band is None or value(rows, f"{stream}.v") > band[1])

    sql = f"SELECT * FROM {', '.join(order)} WHERE {' AND '.join(where)}"
    return sql, order, check


def nested_loops(order, check, arrived):
    """Every combination of one stored row per stream of ``order`` that
    passes ``check``, as the values in ``order``."""
    out = []
    for combo in itertools.product(*(arrived[s] for s in order)):
        if check(dict(zip(order, combo))):
            out.append(sum(combo, ()))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.just("admit"), _QUERY), min_size=1,
                max_size=4), _OPS)
def test_shared_joins_equal_nested_loops_under_churn(admitted, operations):
    previous = set_registry(MetricRegistry())
    try:
        with connect() as conn:
            for stream in STREAMS:
                conn.create_stream(stream, *COLUMNS)
            standing = []       # [cursor, order, check, rows seen]
            done = []
            for op in admitted + operations:
                if op[0] == "admit":
                    sql, order, check = _query(op[1])
                    standing.append([conn.submit(sql), order, check,
                                     {s: [] for s in STREAMS}])
                elif op[0] == "cancel":
                    if standing:
                        query = standing.pop(op[1] % len(standing))
                        query[0].close()
                        done.append(query)
                else:
                    _, stream, row = op
                    conn.push(stream, *row)
                    for query in standing:
                        query[3][stream].append(row)
            for cursor, order, check, seen in standing + done:
                rows = cursor.fetch()
                assert sorted(row.values for row in rows) == \
                    nested_loops(order, check, seen)
                names = [f"{s}.{c}" for s in order for c in COLUMNS]
                assert all(row.schema.column_names() == names
                           for row in rows)
    finally:
        set_registry(previous)
