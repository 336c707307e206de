"""Standing window state: a windowed plan keeps each FROM binding's rows
between windows — scanned, filtered and built into the binding's SteM
once, evicted behind the left edge — and reads columns at positions
bound when its first window fires.

* parity — *one* plan instance fed window after window (forward slides,
  hops with gaps, landmark growth, backward jumps, a static table that
  gains rows) equals a nested-loop oracle per window, on result
  sequences, column names and timestamps;
* count guards through the door (no clocks) — each stored row is
  scanned and built once, rows leave the SteMs, EXPLAIN reports the
  state the plan holds, and no column is resolved by name after the
  first window;
* NULL and NaN keys join nothing, on the continuous and the windowed
  path alike.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.client import connect
from repro.core.tuples import Rows, Schema, Tuple
from repro.core.windows import HISTORY_TOTALS
from repro.monitor.telemetry import MetricRegistry, set_registry
from repro.query.catalog import Catalog
from repro.query.optimizer import compile_query
from repro.query.parser import parse

A = Schema.of("a", "k", "v")
B = Schema.of("b", "k", "w")
C = Schema.of("c", "k", "u")
D = Schema.of("d", "k", "z")          # a static table
NAN = float("nan")                    # one NaN object, shared by rows


def catalog():
    cat = Catalog()
    for schema in (A, B, C):
        cat.create_stream(schema)
    cat.create_table(D)
    return cat


def eq(x, y):
    """SQL equality: NULL equals nothing (NaN is unequal by itself)."""
    return x is not None and y is not None and x == y


def loop(*bindings):
    body = " ".join(f"WindowIs({b}, 1, t);" for b in bindings)
    return f"for (t = 1; t < 2; t++) {{ {body} }}"


def star(combos):
    return [(tuple(itertools.chain.from_iterable(v for v, _ts in combo)),
             max(ts for _v, ts in combo)) for combo in combos]


def project(*picks):
    """Output (binding index, column index) per column, stamped with the
    combo's latest timestamp."""
    return lambda combos: [
        (tuple(combo[b][0][c] for b, c in picks),
         max(ts for _v, ts in combo)) for combo in combos]


def distinct(rows):
    seen, out = set(), []
    for values, ts in rows:
        if values not in seen:
            seen.add(values)
            out.append((values, ts))
    return out


def group_count_sum(combos):
    groups = {}
    for (a, _ta), _b in combos:
        groups.setdefault((a[0],), []).append(a[1])
    return [(key + (len(vs), sum(vs)), None) for key, vs in groups.items()]


def count_max(combos):
    vs = [combo[0][0][1] for combo in combos]
    return [((len(vs), max(vs) if vs else None), None)]


#: name -> (SQL, FROM bindings as (binding, object), output column names,
#: WHERE as a predicate over one value row per binding, and the output
#: as a function of the passing combos in nested-loop order).
CASES = {
    "two bindings": (
        f"SELECT * FROM a, b WHERE a.k = b.k {loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: eq(a[0], b[0]), star),
    "three bindings": (
        "SELECT * FROM a, b, c WHERE a.k = b.k AND b.k = c.k "
        + loop("a", "b", "c"),
        [("a", "a"), ("b", "b"), ("c", "c")],
        ["a.k", "a.v", "b.k", "b.w", "c.k", "c.u"],
        lambda a, b, c: eq(a[0], b[0]) and eq(b[0], c[0]), star),
    "self-join under aliases": (
        f"SELECT * FROM a AS x, a AS y WHERE x.k = y.k AND x.v < y.v "
        f"{loop('x', 'y')}",
        [("x", "a"), ("y", "a")], ["x.k", "x.v", "y.k", "y.v"],
        lambda x, y: eq(x[0], y[0]) and x[1] < y[1], star),
    "static table": (
        f"SELECT * FROM a, d WHERE a.k = d.k {loop('a')}",
        [("a", "a"), ("d", "d")], ["a.k", "a.v", "d.k", "d.z"],
        lambda a, d: eq(a[0], d[0]), star),
    "second equijoin factor, checked by position": (
        f"SELECT * FROM a, b WHERE a.v = b.w AND a.k = b.k "
        f"{loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: eq(a[1], b[1]) and eq(a[0], b[0]), star),
    "no equijoin factor": (
        f"SELECT * FROM a, b WHERE a.v < b.w AND b.w > 0 {loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.k", "a.v", "b.k", "b.w"],
        lambda a, b: a[1] < b[1] and b[1] > 0, star),
    "residual column comparison, projected": (
        f"SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.v > b.w "
        f"{loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.v", "b.w"],
        lambda a, b: eq(a[0], b[0]) and a[1] > b[1], project((0, 1), (1, 1))),
    "group by": (
        f"SELECT a.k, COUNT(*), SUM(a.v) FROM a, b WHERE a.k = b.k "
        f"GROUP BY a.k {loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["k", "count", "sum_a_v"],
        lambda a, b: eq(a[0], b[0]), group_count_sum),
    "distinct": (
        f"SELECT DISTINCT a.k, b.w FROM a, b WHERE a.k = b.k "
        f"{loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.k", "b.w"],
        lambda a, b: eq(a[0], b[0]),
        lambda combos: distinct(project((0, 0), (1, 1))(combos))),
    "order by": (
        f"SELECT a.v, b.w FROM a, b WHERE a.k = b.k ORDER BY b.w DESC "
        f"{loop('a', 'b')}",
        [("a", "a"), ("b", "b")], ["a.v", "b.w"],
        lambda a, b: eq(a[0], b[0]),
        lambda combos: sorted(project((0, 1), (1, 1))(combos),
                              key=lambda row: row[0][1], reverse=True)),
    "aggregates, no groups": (
        f"SELECT COUNT(*), MAX(a.v) FROM a WHERE a.v > 1 {loop('a')}",
        [("a", "a")], ["count", "max_a_v"],
        lambda a: a[1] > 1, count_max),
}

keys = st.sampled_from([0, 1, 2, None, NAN])
#: a stream's history: (key, value) rows, timestamps 1..8 ascending,
#: several rows to a timestamp allowed.
history = st.lists(st.tuples(keys, st.integers(0, 3), st.integers(1, 8)),
                   max_size=10).map(
    lambda rows: sorted(rows, key=lambda r: r[2]))


@st.composite
def bounds_sequence(draw, n):
    """``n`` windows of one binding: slides, hops with gaps, landmark
    growth, backward jumps and arbitrary jumps."""
    lo = draw(st.integers(0, 4))
    hi = lo + draw(st.integers(0, 4))
    out = [(lo, hi)]
    for _ in range(n - 1):
        move = draw(st.sampled_from(["slide", "hop", "grow", "back", "any"]))
        if move == "slide":
            step = draw(st.integers(0, 3))
            lo, hi = lo + step, hi + step
        elif move == "hop":
            width = hi - lo
            lo = hi + draw(st.integers(2, 3))
            hi = lo + width
        elif move == "grow":
            hi += draw(st.integers(0, 3))
        elif move == "back":
            step = draw(st.integers(1, 4))
            lo, hi = lo - step, hi - step
        else:
            lo = draw(st.integers(-1, 9))
            hi = lo + draw(st.integers(-1, 5))
        out.append((lo, hi))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.integers(3, 6), st.data())
def test_one_plan_over_consecutive_windows_equals_nested_loops(
        case, n_windows, data):
    sql, bindings, names, where, output = CASES[case]
    cat = catalog()
    plan = compile_query(parse(sql), cat).window_plan
    # Stored rows, one Tuple each for the life of the run; the plan
    # builds an alias binding's rows under the alias's schema itself.
    stored = {schema.name: [Tuple(schema, (k, v), timestamp=ts)
                            for k, v, ts in data.draw(history)]
              for schema in (A, B, C)}
    table = []
    windowed = [b for b, _o in bindings if b not in plan.static_bindings]
    seq = {b: data.draw(bounds_sequence(n_windows)) for b in windowed}

    def rows_of(obj, lo, hi):
        if obj == "d":
            return table[max(lo, 0):max(hi + 1, 0)]
        return [t for t in stored[obj] if lo <= t.timestamp <= hi]

    objects = dict(bindings)
    for i in range(n_windows):
        for k, z in data.draw(st.lists(st.tuples(keys, st.integers(0, 3)),
                                       max_size=2)):
            table.append(Tuple(D, (k, z), timestamp=len(table)))
        bounds = {b: seq[b][i] for b in windowed}
        for b in plan.static_bindings:
            bounds[b] = (0, len(table) - 1)
        out = plan.window(bounds, lambda b, lo, hi: Rows.of(
            rows_of(objects[b], lo, hi), cat.lookup(objects[b]).schema))
        sides = [[(t.values, t.timestamp)
                  for t in rows_of(obj, *bounds[b])]
                 for b, obj in bindings]
        combos = [combo for combo in itertools.product(*sides)
                  if where(*(values for values, _ts in combo))]
        assert [(t.values, t.timestamp) for t in out] == output(combos), \
            (i, bounds)
        assert all(t.schema.column_names() == names for t in out)


# -- count guards, through the door ------------------------------------------

@pytest.fixture
def private_registry():
    previous = set_registry(MetricRegistry())
    yield
    set_registry(previous)


SLIDING = """
    SELECT * FROM a, b WHERE a.k = b.k AND b.w > 2
    for (t = 4; t <= {last}; t++) {{
        WindowIs(a, t - 3, t); WindowIs(b, t - 3, t);
    }}"""


def push_until(conn, first, last):
    for ts in range(first, last + 1):
        conn.push_rows("a", [(ts % 3, ts)], timestamp=ts)
        conn.push_rows("b", [(ts % 3, ts)], timestamp=ts)


def stem_values(snap, family):
    return {s.labels["stem"].split("#")[0]: s.value for s in snap.samples
            if s.name == family and s.labels.get("stem", "").startswith(
                "stem[")}


def test_sliding_windows_scan_and_build_each_row_once(private_registry):
    """Width 4, hop 1: the windows cover timestamps 1..last, every row
    in four of them.  Each row is scanned once and, if it passes its
    binding's filter, built once; rows leave at the left edge."""
    last = 30
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        cursor = conn.submit(SLIDING.format(last=last))
        push_until(conn, 1, last + 1)
        scanned = HISTORY_TOTALS.tuples_scanned
        conn.run()
        scanned = HISTORY_TOTALS.tuples_scanned - scanned
        snap = conn.telemetry()
        windows = cursor.fetch_windows()
    assert len(windows) == last - 3
    assert scanned == 2 * last          # recomputing: 4x that
    assert stem_values(snap, "tcq_stem_builds_total") == {
        "stem[a]": last, "stem[b]": last - 2}     # b.w > 2 drops w = 1, 2
    evictions = stem_values(snap, "tcq_stem_evictions_total")
    assert evictions["stem[a]"] == last - 4 and evictions["stem[b]"] > 0
    assert stem_values(snap, "tcq_stem_size") == {"stem[a]": 4,
                                                  "stem[b]": 4}


def test_explain_reports_the_state_a_windowed_plan_holds(private_registry):
    """EXPLAIN on a windowed cursor: rows per binding SteM, the results
    the plan keeps (the last window's), and results built against
    results delivered: each match is built once, delivered in every
    window that holds it."""
    last = 30
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        cursor = conn.submit(SLIDING.format(last=last))
        push_until(conn, 1, last + 1)
        conn.run()
        windows = cursor.fetch_windows()
        report = conn.explain(cursor)
    state = report["state"]
    delivered = sum(len(rows) for _t, rows in windows)
    assert state["rows"] == {"a": 4, "b": 4}
    assert state["results_kept"] == len(windows[-1][1]) > 0
    assert state["results_delivered"] == delivered
    assert 0 < state["results_built"] < delivered
    assert any(note.startswith("state held: stem[a] 4 rows")
               for note in report["notes"])


def test_no_column_is_resolved_after_the_first_window(monkeypatch,
                                                      private_registry):
    calls = []
    resolve = Catalog.resolve_column

    def counted(self, column, bindings):
        calls.append(column)
        return resolve(self, column, bindings)

    monkeypatch.setattr(Catalog, "resolve_column", counted)
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        cursor = conn.submit(
            "SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND a.v > 0 "
            "ORDER BY v "
            "for (t = 4; t <= 40; t++) { WindowIs(a, t - 3, t); "
            "WindowIs(b, t - 3, t); }")
        push_until(conn, 1, 5)
        conn.run()
        assert len(cursor.fetch_windows()) == 1
        first = len(calls)
        push_until(conn, 6, 41)
        conn.run()
        assert len(cursor.fetch_windows()) == 36
    assert len(calls) == first


# -- NULL and NaN keys ----------------------------------------------------------

def test_null_keys_never_join_continuous_or_windowed():
    """``a.k = b.k`` with a NULL key on both streams: no pair, on
    either path — whether the factor picks the SteM bucket or, behind
    another equijoin factor, is checked on the pair."""
    window = ("for (t = 2; t <= 2; t++) { WindowIs(a, 1, t); "
              "WindowIs(b, 1, t); }")
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        conn.create_stream("b", "k", "w")
        continuous = conn.submit("SELECT * FROM a, b WHERE a.k = b.k")
        bucket = conn.submit(
            f"SELECT a.v, b.w FROM a, b WHERE a.k = b.k {window}")
        checked = conn.submit(
            f"SELECT a.v, b.w FROM a, b WHERE a.v = b.w AND a.k = b.k "
            f"{window}")
        conn.push_rows("a", [(None, 1), (1, 2)], timestamp=1)
        conn.push_rows("b", [(None, 1), (1, 2)], timestamp=1)
        conn.close_stream("a")
        conn.close_stream("b")
        conn.run()
        assert [t.as_dict() for t in continuous.fetch()] == [
            {"a.k": 1, "a.v": 2, "b.k": 1, "b.w": 2}]
        assert [t.values for t in bucket.fetch()] == [(2, 2)]
        assert [t.values for t in checked.fetch()] == [(2, 2)]


def test_one_nan_object_does_not_join_itself():
    """A self-join meets the same NaN object on both sides; the bucket
    the SteM would find for it must not stand in for ``nan == nan``."""
    with connect() as conn:
        conn.create_stream("a", "k", "v")
        cursor = conn.submit(
            "SELECT * FROM a AS x, a AS y WHERE x.k = y.k "
            "for (t = 2; t <= 2; t++) { WindowIs(x, 1, t); "
            "WindowIs(y, 1, t); }")
        conn.push_rows("a", [(NAN, 1), (2, 2)], timestamp=1)
        conn.close_stream("a")
        conn.run()
        assert [t.values for t in cursor.fetch()] == [(2, 2, 2, 2)]
