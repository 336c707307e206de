"""Door parity: ``push``, ``push_tuple`` and ``push_rows`` are one door.

Whatever mix of the three a client uses, and however rows are grouped
into batches, the server must end up exactly where it would have been
had the same rows been pushed one ``push`` at a time: identical
per-cursor result *sequences*, store contents and timestamps,
``IngressPoint.accepted`` / ``shed``, stream clocks,
``tcq_server_ingress_tuples_total`` and the hops of every sampled row —
with sampled tracing on or off and a dropping shedder in front or not.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import repro.monitor.tracing as tracing
from repro.core.engine import TelegraphCQServer
from repro.core.tuples import Schema
from repro.monitor.telemetry import MetricRegistry, set_registry

A = Schema.of("a", "k", "v")
B = Schema.of("b", "k", "w")
SCHEMAS = {"a": A, "b": B}
WINDOWS = 12

FILTER_SQL = "SELECT * FROM a WHERE v > 4"
JOIN_SQL = "SELECT * FROM a, b WHERE a.k = b.k"
WINDOWED_SQL = f"""
    SELECT * FROM b WHERE w > 2
    for (t = 1; t <= {WINDOWS}; t++) {{ WindowIs(b, t - 1, t); }}"""
# an alias binding: its rows are built under the alias's own schema
ALIASED_SQL = f"""
    SELECT x.k, x.v FROM a AS x WHERE x.v > 1
    for (t = 1; t <= {WINDOWS}; t++) {{ WindowIs(x, t - 2, t); }}"""


def flat(t):
    return (t.values, t.timestamp)


def hops(t):
    """A sampled row's trip (SteM sites without their instance
    number), or None for an unsampled one."""
    if t.trace is None:
        return None
    return [(h.kind, re.sub(r"#\d+$", "", h.site), h.detail)
            for h in t.trace.hops]


class ShedByValue:
    """A deterministic dropping shedder: it decides on each row alone
    (the last value a multiple of 3 is shed), so how rows are grouped
    into batches cannot change what it keeps."""

    @staticmethod
    def admit(batch):
        return [t for t in batch if t.values[-1] % 3]


def sheds(row, shed):
    return shed and not row[-1] % 3


class Harness:
    """One server under a private registry, four standing queries;
    tracing samples every ``sample``-th arrival (0: off)."""

    def __init__(self, sample=0, shed=False):
        self.previous = set_registry(MetricRegistry())
        tracing.configure_tracing(sample)
        tracing.TRACER.reset()
        self.srv = TelegraphCQServer()
        for schema in SCHEMAS.values():
            self.srv.create_stream(schema)
        if shed:
            self.srv.shed_with(ShedByValue())
        self.cursors = {
            "filter": self.srv.submit(FILTER_SQL),
            "join": self.srv.submit(JOIN_SQL),
            "windowed": self.srv.submit(WINDOWED_SQL, env={"ST": 1}),
            "aliased": self.srv.submit(ALIASED_SQL, env={"ST": 1}),
        }
        self.clock = {"a": 0, "b": 0}

    def stamps(self, stream, n, gap):
        """The timestamps the door must assign to ``n`` rows pushed with
        base ``clock + 1 + gap`` (``gap`` None: no base given)."""
        first = self.clock[stream] + 1 + (gap or 0)
        if n:
            self.clock[stream] = first + n - 1
        return first

    def observe(self):
        srv = self.srv
        for stream in SCHEMAS:
            srv.close_stream(stream)
        srv.run_until_quiescent()
        snap = srv.telemetry()
        stored = {s: srv.stores[s].scan(0, 1 << 40) for s in SCHEMAS}
        seen = {
            "results": {
                name: [flat(t) for t in cur.fetch()]
                for name, cur in self.cursors.items()
                if name in ("filter", "join")},
            "windows": {
                name: [(t, [flat(r) for r in rows]) for t, rows in
                       self.cursors[name].fetch_windows()]
                for name in ("windowed", "aliased")},
            "stores": {s: [flat(t) for t in rows]
                       for s, rows in stored.items()},
            "traces": {s: [hops(t) for t in rows]
                       for s, rows in stored.items()},
            "accepted": {s: srv.ingress[s].accepted for s in SCHEMAS},
            "shed": {s: srv.ingress[s].shed for s in SCHEMAS},
            "clocks": {s: srv.ingress[s].clock for s in SCHEMAS},
            "counter": {s: snap.value("tcq_server_ingress_tuples_total",
                                      stream=s) for s in SCHEMAS},
            "ingested": srv.stats()["ingested"],
        }
        srv.close()
        tracing.configure_tracing(0)
        tracing.TRACER.reset()
        set_registry(self.previous)
        return seen


def run_doors(ops, sample=0, shed=False):
    """Each op through the door it names."""
    h = Harness(sample, shed)
    for door, stream, rows, gap in ops:
        if door == "step":
            h.srv.step()
            continue
        first = h.stamps(stream, len(rows), gap)
        base = None if gap is None else first
        if door == "push_rows":
            reply = h.srv.push_rows(stream, rows, timestamp=base)
            dropped = sum(sheds(row, shed) for row in rows)
            assert reply == {"pushed": len(rows) - dropped, "shed": dropped}
        elif door == "push":
            for i, row in enumerate(rows):
                h.srv.push(stream, *row, timestamp=None if base is None
                           else base + i)
        else:
            for i, row in enumerate(rows):
                h.srv.push_tuple(stream, SCHEMAS[stream].make(
                    *row, timestamp=first + i))
    return h.observe()


def run_reference(ops, sample=0, shed=False):
    """The same rows, one ``push`` at a time, every timestamp explicit."""
    h = Harness(sample, shed)
    for door, stream, rows, gap in ops:
        if door == "step":
            h.srv.step()
            continue
        first = h.stamps(stream, len(rows), gap)
        for i, row in enumerate(rows):
            h.srv.push(stream, *row, timestamp=first + i)
    return h.observe()


row = st.tuples(st.integers(0, 3), st.integers(0, 9))
op = st.one_of(
    st.tuples(st.just("step"), st.just(""), st.just(()), st.none()),
    st.tuples(st.sampled_from(["push", "push_tuple", "push_rows"]),
              st.sampled_from(["a", "b"]),
              st.lists(row, min_size=0, max_size=6),
              st.one_of(st.none(), st.integers(0, 2))))


@settings(max_examples=80, deadline=None)
@given(st.lists(op, max_size=14), st.sampled_from([0, 1, 3]), st.booleans())
def test_every_door_is_the_same_door(ops, sample, shed):
    got, want = run_doors(ops, sample, shed), run_reference(ops, sample, shed)
    assert got == want
    rows_in = {s: [row for _d, stream, rows, _g in ops if stream == s
                   for row in rows] for s in SCHEMAS}
    dropped = {s: sum(sheds(row, shed) for row in rows)
               for s, rows in rows_in.items()}
    assert got["shed"] == dropped
    assert got["accepted"] == {s: len(rows) - dropped[s]
                               for s, rows in rows_in.items()}
    assert got["ingested"] == sum(got["accepted"].values())
    if sample == 1:
        assert all(trip is not None for trips in got["traces"].values()
                   for trip in trips)


# -- query-set changes in the middle of a batch ------------------------------

def mid_batch(batched, react, second_sql=None, late_row=flat):
    """Queries ``first`` (over ``a``) and ``second``; ``first``'s third
    result calls ``react(srv, state)``.  Rows go in as one ``push_rows``
    per stream or one ``push`` at a time; returns every result
    sequence."""
    previous = set_registry(MetricRegistry())
    srv = TelegraphCQServer()
    srv.create_stream(A)
    srv.create_stream(B)
    state = {"first": [], "late": None}

    def on_first(t):
        state["first"].append(flat(t))
        if len(state["first"]) == 3:
            react(srv, state)

    srv.submit("SELECT * FROM a WHERE v >= 0", on_result=on_first)
    state["second"] = srv.submit(second_sql or "SELECT * FROM a WHERE v > 1")
    b_rows = [(k, k) for k in range(4)]
    a_rows = [(i % 4, i) for i in range(8)]
    for stream, rows in (("b", b_rows), ("a", a_rows), ("b", b_rows)):
        if batched:
            srv.push_rows(stream, rows)
        else:
            for r in rows:
                srv.push(stream, *r)
    out = {"first": state["first"],
           "second": [flat(t) for t in state["second"].fetch()],
           "late": None if state["late"] is None
           else [late_row(t) for t in state["late"].fetch()]}
    srv.close()
    set_registry(previous)
    return out


def test_cancel_inside_a_batch_takes_effect_at_the_next_tuple():
    def react(srv, state):
        state["second"].close()

    batched, single = mid_batch(True, react), mid_batch(False, react)
    assert batched == single
    # `second` (v > 1) saw a's third row (v = 2) only if it was delivered
    # before `first`'s callback ran; either way nothing after it.
    assert all(values[1] <= 2 for values, _ts in batched["second"])
    assert len(batched["first"]) == 8


def test_engine_merge_inside_a_batch_takes_effect_at_the_next_tuple():
    """The "merge" is a callback admitting the join that bridges ``a``
    and ``b``: an ordinary admission, which takes effect at the next
    tuple, batched or not."""
    def react(srv, state):
        state["late"] = srv.submit(JOIN_SQL)

    batched, single = (
        mid_batch(flag, react, second_sql="SELECT * FROM b WHERE w >= 0",
                  late_row=lambda t: (t["a.v"], t["b.w"]))
        for flag in (True, False))
    assert batched == single
    assert len(batched["first"]) == 8       # survived the bridge mid-batch
    # The join was admitted during a's third row (v = 2): only a's later
    # rows build into its SteM, so the second round of b rows joins with
    # exactly those.
    assert sorted(batched["late"]) == [(3, 3), (4, 0), (5, 1), (6, 2), (7, 3)]


def test_admission_inside_a_batch_takes_effect_at_the_next_tuple():
    """The new query joins the engine the batch is running in: the rows
    behind the one whose callback admitted it were filtered before it
    existed, and must be filtered again."""
    def react(srv, state):
        state["late"] = srv.submit("SELECT * FROM a WHERE v < 6")

    batched, single = mid_batch(True, react), mid_batch(False, react)
    assert batched == single
    # admitted during a's third row (v = 2): sees v = 3, 4, 5 and no more
    assert [values[1] for values, _ts in batched["late"]] == [3, 4, 5]
    assert len(batched["first"]) == 8


def test_a_callback_pushing_into_the_partner_stream_mid_batch():
    """A result callback feeds stream ``b`` while a batch of ``a`` is
    half routed: the ``a`` rows still waiting arrive after those ``b``
    rows, whenever they were built, and must join with them."""
    def run(batched):
        previous = set_registry(MetricRegistry())
        srv = TelegraphCQServer()
        srv.create_stream(A)
        srv.create_stream(B)
        join = srv.submit(JOIN_SQL)
        seen = []

        def feed(t):
            seen.append(flat(t))
            if len(seen) == 2:
                srv.push_rows("b", [(k, 10 + k) for k in range(4)])

        srv.submit("SELECT * FROM a WHERE v >= 0", on_result=feed)
        rows = [(i % 4, i) for i in range(8)]
        if batched:
            srv.push_rows("a", rows)
        else:
            for r in rows:
                srv.push("a", *r)
        out = [flat(t) for t in join.fetch()]
        srv.close()
        set_registry(previous)
        return out

    assert run(True) == run(False)
    # b arrived during a's second row: a's rows 0 and 1 were found in
    # the SteM by b's probes, rows 2..7 found b's rows by their own
    assert len(run(True)) == 8
