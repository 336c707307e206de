"""``CACQEngine.push_batch`` is ``push_tuple`` row by row.

The batch path runs each grouped filter once per batch and keeps lineage
in a mask column; whatever it does inside, the per-query delivered
*sequences*, every counter an operator reads, the SteM contents and the
hops of sampled rows must be what one ``push_tuple`` per row gives —
also when a result callback changes the query set half way through.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.monitor.tracing as tracing
from repro.core.cacq import CACQEngine
from repro.core.tuples import Schema
from repro.query.predicates import And, ColumnComparison, Comparison, Or

TRADES = Schema.of("trades", "sym", "price")
QUOTES = Schema.of("quotes", "sym", "bid")
SCHEMAS = {"trades": TRADES, "quotes": QUOTES}
NUMERIC = {"trades": "price", "quotes": "bid"}
OPS = ["==", "!=", "<", "<=", ">", ">="]

_FACTORS = st.lists(st.tuples(st.booleans(), st.sampled_from(OPS),
                              st.integers(0, 4)), max_size=3)
_QUERIES = st.one_of(
    st.tuples(st.just("select"), st.sampled_from(["trades", "quotes"]),
              _FACTORS.filter(len)),
    # a disjunction stays whole as the query's residual predicate
    st.tuples(st.just("either"), st.sampled_from(["trades", "quotes"]),
              _FACTORS.filter(lambda fs: len(fs) >= 2)),
    # equijoin on ``sym`` or on price = bid, selections on the trades
    # side; two of them share the SteMs
    st.tuples(st.just("join"), st.booleans(), _FACTORS))
_ARRIVALS = st.lists(st.tuples(st.sampled_from(["trades", "quotes"]),
                               st.integers(0, 2), st.integers(0, 4)),
                     max_size=40)


def build_query(spec):
    kind, which, factors = spec
    stream = "trades" if kind == "join" else which
    parts = [Comparison(f"{stream}.{NUMERIC[stream] if numeric else 'sym'}",
                        op, constant)
             for numeric, op, constant in factors]
    if kind == "select":
        return [stream], And(*parts) if len(parts) > 1 else parts[0]
    if kind == "either":
        return [stream], And(Or(*parts[:2]), *parts[2:]) \
            if len(parts) > 2 else Or(*parts)
    join = ColumnComparison("trades.sym", "==", "quotes.sym") if which \
        else ColumnComparison("trades.price", "==", "quotes.bid")
    return ["trades", "quotes"], And(join, *parts)


def fresh_engine(specs):
    engine = CACQEngine()
    for schema in SCHEMAS.values():
        engine.register_stream(schema)
    return engine, [engine.add_query(*build_query(s)) for s in specs]


def runs_of(arrivals, cuts):
    """Consecutive same-stream arrivals, further cut where ``cuts``
    says so: the batches a door would hand the engine."""
    runs = []
    for i, (stream, sym, value) in enumerate(arrivals):
        if runs and runs[-1][0] == stream and i not in cuts:
            runs[-1][1].append((sym, value, i))
        else:
            runs.append((stream, [(sym, value, i)]))
    return runs


def make(stream, rows):
    return [SCHEMAS[stream].make(sym, value, timestamp=ts)
            for sym, value, ts in rows]


def push_all(engine, stream, tuples):
    """What a caller of ``push_batch`` owes it: resume on the tail."""
    while tuples:
        tuples = tuples[engine.push_batch(stream, tuples):]


def observed(engine, queries):
    return {
        "results": [[(t.values, t.timestamp) for t in q.results]
                    for q in queries],
        "delivered": [q.delivered for q in queries],
        "stats": engine.stats(),
        "filters": {key: (gf.probes, gf.seen, gf.passed_count)
                    for key, gf in engine.filters.items()},
        "stems": {s: [(t.values, t.timestamp, t.queries)
                      for t in stem.contents()]
                  for s, stem in engine.stems.items()},
        "stem_probes": {s: (stem.probes, stem.probe_hits)
                        for s, stem in engine.stems.items()},
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(_QUERIES, min_size=1, max_size=8), _ARRIVALS,
       st.sets(st.integers(0, 40)))
def test_push_batch_equals_push_tuple(specs, arrivals, cuts):
    batched, batched_queries = fresh_engine(specs)
    single, single_queries = fresh_engine(specs)
    for stream, rows in runs_of(arrivals, cuts):
        assert batched.push_batch(stream, make(stream, rows)) == len(rows)
        for t in make(stream, rows):
            single.push_tuple(stream, t)
    assert observed(batched, batched_queries) == \
        observed(single, single_queries)


# -- the query set changes under a batch in flight ---------------------------

def reacting_engine(react):
    """Two standing filters on ``price``; the first one's third result
    runs ``react(engine, state)``."""
    engine = CACQEngine()
    engine.register_stream(TRADES)
    engine.register_stream(QUOTES)
    state = {"seen": [], "late": None}

    def on_first(t):
        state["seen"].append(t.values)
        if len(state["seen"]) == 3:
            react(engine, state)

    engine.add_query(["trades"], Comparison("price", ">=", 1),
                     callback=on_first)
    state["second"] = engine.add_query(["trades"], Comparison("price", ">", 3))
    return engine, state


ROWS = [("A", p, p) for p in (0, 1, 2, 0, 3, 9, 0, 4, 5, 0)]


def admit(engine, state):
    state["late"] = engine.add_query(["trades"], And(
        Comparison("price", "<", 9), Comparison("sym", "==", "A")))


def cancel(engine, state):
    engine.remove_query(state["second"])


@pytest.mark.parametrize("react", [admit, cancel])
def test_a_callback_changing_the_query_set_stops_the_batch(react):
    batched, b_state = reacting_engine(react)
    single, s_state = reacting_engine(react)
    tuples = make("trades", ROWS)
    # rows 0..4 hold the first query's first three results: the engine
    # stops there and counts nothing of the tail
    assert batched.push_batch("trades", tuples) == 5
    assert batched.tuples_in == 5
    assert batched.filters[("trades", "price")].probes == 5
    push_all(batched, "trades", tuples[5:])
    for t in make("trades", ROWS):
        single.push_tuple("trades", t)

    def standing(state):
        return [state["second"]] + ([state["late"]] if state["late"] else [])

    assert observed(batched, standing(b_state)) == \
        observed(single, standing(s_state))
    assert b_state["seen"] == s_state["seen"]
    if b_state["late"] is not None:
        # admitted during row 4: sees exactly the rows after it
        assert [t.values[1] for t in b_state["late"].results] == [0, 4, 5, 0]


# -- sampled rows keep their story -------------------------------------------

@pytest.fixture
def every_row_traced():
    tracer = tracing.TRACER
    old = tracer.sample_every
    tracer.configure(sample_every=1)
    tracer.reset()
    yield tracer
    tracer.configure(sample_every=old)
    tracer.reset()


def hops(t):
    return [(h.kind, h.site, h.detail) for h in t.trace.hops]


def test_sampled_rows_get_their_filter_hops_on_the_batch_path(
        every_row_traced):
    specs = [("select", "trades", [(True, ">", 1), (False, "==", 1)]),
             ("select", "trades", [(True, "<", 3)])]
    arrivals = [(s, p) for p in range(5) for s in (0, 1)]

    def run(batch):
        engine, _queries = fresh_engine(specs)
        tuples = make("trades", [(s, p, i)
                                 for i, (s, p) in enumerate(arrivals)])
        for t in tuples:
            every_row_traced.maybe_start(t, "test")
        if batch:
            engine.push_batch("trades", tuples)
        else:
            for t in tuples:
                engine.push_tuple("trades", t)
        return [hops(t) for t in tuples]

    batched = run(True)
    assert batched == run(False)
    # price 0: only ``< 3`` is still interested, and it has no factor
    # on ``sym``, so that filter is never asked
    assert batched[0] == [("ingress", "test", ""),
                          ("filter", "gf[trades.price]", "pass")]
    assert batched[5] == [("ingress", "test", ""),
                          ("filter", "gf[trades.price]", "pass"),
                          ("filter", "gf[trades.sym]", "pass")]
    # price 4, sym 0: fails ``< 3`` and ``sym == 1`` alike
    assert batched[8][-1] == ("filter", "gf[trades.sym]", "drop")


def test_a_stopped_batch_leaves_the_tail_untraced(every_row_traced):
    engine, state = reacting_engine(admit)
    tuples = make("trades", ROWS)
    for t in tuples:
        every_row_traced.maybe_start(t, "test")
    consumed = engine.push_batch("trades", tuples)
    assert all(len(t.trace.hops) == 1 for t in tuples[consumed:])
    push_all(engine, "trades", tuples[consumed:])
    # one pass through the price filter per row, never two
    assert all(hops(t).count(("filter", "gf[trades.price]", "pass"))
               + hops(t).count(("filter", "gf[trades.price]", "drop")) == 1
               for t in tuples)
