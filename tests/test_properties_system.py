"""System-level property tests: randomized workloads and failure
injection against whole-subsystem invariants.

These complement the per-module property tests: hypothesis drives the
*composition* — random queries through the full server against a
reference evaluator, random crash points against Flux's exactly-once
ledger, random scripts against the windowed runner.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.report import PlanCheckWarning
from repro.core.eddy import Eddy, FilterOperator, SteMOperator
from repro.core.engine import TelegraphCQServer
from repro.core.routing import BatchingDirective, FixedPolicy
from repro.core.stem import SteM
from repro.core.tuples import Schema, TupleBatch
from repro.flux.cluster import Cluster, GroupCountState
from repro.flux.flux import Flux
from repro.query.predicates import ColumnComparison, Comparison

from tests.conftest import values_of

TRADES = Schema.of("trades", "sym", "price")


# ---------------------------------------------------------------- server

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 100)),
                min_size=1, max_size=40),
       st.lists(st.tuples(st.sampled_from([">", "<", ">=", "<=", "=="]),
                          st.integers(0, 100)),
                min_size=1, max_size=8))
def test_server_cq_results_match_reference(data, predicates):
    """Property: for any stream content and any set of selection CQs,
    the full server delivers exactly the brute-force answer."""
    srv = TelegraphCQServer()
    srv.create_stream(TRADES)
    cursors = [
        (srv.submit(f"SELECT * FROM trades WHERE price {op} {value}"),
         op, value)
        for op, value in predicates]
    for i, (sym, price) in enumerate(data):
        srv.push("trades", sym, price, timestamp=i + 1)
    from repro.query.predicates import OPS
    for cursor, op, value in cursors:
        fn = OPS["==" if op == "=" else op]
        expected = sorted((sym, price) for sym, price in data
                          if fn(price, value))
        got = sorted((t["sym"], t["price"]) for t in cursor.fetch())
        assert got == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 30), st.integers(1, 10), st.integers(1, 10),
       st.integers(0, 5))
def test_windowed_count_matches_closed_form(n_days, width, hop, start_off):
    """Property: a COUNT(*) over any sliding window spec equals the
    window's true size, for every fired window."""
    srv = TelegraphCQServer()
    srv.create_stream(TRADES)
    start = width + start_off
    # Two windows further apart than they are wide leave a gap between
    # them: admitted, with TCQ206.
    gaps = pytest.warns(PlanCheckWarning, match="TCQ206") \
        if hop > width and start + hop <= n_days \
        else contextlib.nullcontext()
    with gaps:
        cursor = srv.submit(f"""
            SELECT COUNT(*) FROM trades
            for (t = {start}; t <= {max(start, n_days)}; t += {hop}) {{
                WindowIs(trades, t - {width - 1}, t);
            }}""")
    for day in range(1, n_days + 1):
        srv.push("trades", "A", float(day), timestamp=day)
        srv.step()
    srv.close_stream("trades")
    srv.run_until_quiescent()
    for t, rows in cursor.fetch_windows():
        lo, hi = t - width + 1, t
        true_size = max(0, min(hi, n_days) - max(lo, 1) + 1)
        assert rows[0]["count"] == true_size


# ------------------------------------------------- vectorized pipeline

_VS = Schema.of("S", "a", "k")
_VT = Schema.of("T", "b", "k")
_V_OPS = [">", "<", ">=", "<=", "==", "!="]


def _build_pipeline(filter_specs, with_join):
    """Fresh operators for one run (eddies and SteMs hold state)."""
    ops = []
    if with_join:
        join = ColumnComparison("S.k", "==", "T.k")
        ops.append(SteMOperator(SteM("S", index_columns=("S.k",)), [join],
                                name="stem_s"))
        ops.append(SteMOperator(SteM("T", index_columns=("T.k",)), [join],
                                name="stem_t"))
    for i, (column, op, value) in enumerate(filter_specs):
        ops.append(FilterOperator(Comparison(column, op, value),
                                  name=f"f{i}"))
    footprint = {"S", "T"} if with_join else {"S"}
    order = [op.name for op in ops]
    return ops, footprint, order


def _make_rows(s_data, t_data, with_join):
    """All of S before all of T, so the arrival-order join dedupe sees
    the same tid order no matter how rows are later grouped into
    batches."""
    rows = [_VS.make(a, k, timestamp=i)
            for i, (a, k) in enumerate(s_data)]
    if with_join:
        rows += [_VT.make(b, k, timestamp=len(s_data) + i)
                 for i, (b, k) in enumerate(t_data)]
    return rows


def _flatten(results):
    out = []
    for item in results:
        if isinstance(item, TupleBatch):
            out.extend(item.materialize())
        else:
            out.append(item)
    return out


def _data_plane_counters(eddy, ops):
    """The counters both execution paths must agree on exactly.  Control
    plane (routing_decisions, lottery state) legitimately differs — the
    batch path consults the policy once per batch."""
    counters = {
        "eddy.tuples_routed": eddy.tuples_routed,
        "eddy.outputs_emitted": eddy.outputs_emitted,
    }
    for op in ops:
        counters[f"{op.name}.seen"] = op.seen
        counters[f"{op.name}.passed"] = op.passed_count
        if isinstance(op, SteMOperator):
            counters[f"{op.name}.builds"] = op.stem.builds
            counters[f"{op.name}.probes"] = op.stem.probes
            counters[f"{op.name}.matches"] = op.stem.matches_out
    return counters


def _run_pipeline(s_data, t_data, filter_specs, with_join, batch_size,
                  vectorized):
    ops, footprint, order = _build_pipeline(filter_specs, with_join)
    eddy = Eddy(ops, output_sources=footprint, policy=FixedPolicy(order),
                batching=BatchingDirective(batch_size,
                                           vectorize=vectorized))
    rows = _make_rows(s_data, t_data, with_join)
    results = []
    if vectorized:
        # Batches never mix schemas; S rows precede T rows in ``rows``
        # so slicing by schema keeps the arrival order intact.
        for schema in (_VS, _VT):
            group = [t for t in rows if t.schema is schema]
            for i in range(0, len(group), batch_size):
                batch = TupleBatch.from_tuples(group[i:i + batch_size])
                results.extend(eddy.process_batch(batch, 0))
    else:
        for t in rows:
            results.extend(eddy.process(t, 0))
    return _flatten(results), _data_plane_counters(eddy, ops)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)),
                max_size=30),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8)),
                max_size=30),
       st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.sampled_from(_V_OPS), st.integers(0, 5)),
                min_size=1, max_size=4),
       st.booleans(),
       st.sampled_from([1, 3, 16, 64]))
def test_vectorized_pipeline_equals_per_tuple(s_data, t_data, filter_specs,
                                              with_join, batch_size):
    """Property: for any random filter/join pipeline, the vectorized
    batch path produces exactly the per-tuple path's result multiset AND
    identical data-plane telemetry (operator seen/passed, SteM
    builds/probes/matches, eddy routed/emitted)."""
    if not with_join:
        # Without T in the plan, filters on "b" would never apply.
        filter_specs = [(("a",) + spec[1:]) for spec in filter_specs]
    per_tuple, counters_pt = _run_pipeline(
        s_data, t_data, filter_specs, with_join, batch_size,
        vectorized=False)
    vectorized, counters_vec = _run_pipeline(
        s_data, t_data, filter_specs, with_join, batch_size,
        vectorized=True)
    assert values_of(vectorized) == values_of(per_tuple)
    assert counters_vec == counters_pt


# Three-way join: SteM probes emit *composite* tuples that re-enter the
# routing loop, which in the batch path runs through the per-tuple
# composite fall-back inside ``process_batch``.  That fall-back must
# make fresh routing decisions (not reuse the batch-amortised route
# cache) for counters to match the per-tuple path exactly.

_VU = Schema.of("U", "c", "k")
_J3_ST = ColumnComparison("S.k", "==", "T.k")
_J3_TU = ColumnComparison("T.k", "==", "U.k")
_J3_SU = ColumnComparison("S.k", "==", "U.k")


def _build_three_way(filter_specs):
    stems = [SteM("S", index_columns=("S.k",)),
             SteM("T", index_columns=("T.k",)),
             SteM("U", index_columns=("U.k",))]
    ops = [SteMOperator(stems[0], [_J3_ST, _J3_SU], name="stem_s"),
           SteMOperator(stems[1], [_J3_ST, _J3_TU], name="stem_t"),
           SteMOperator(stems[2], [_J3_TU, _J3_SU], name="stem_u")]
    for i, (column, op, value) in enumerate(filter_specs):
        ops.append(FilterOperator(Comparison(column, op, value),
                                  name=f"f{i}"))
    return ops, [op.name for op in ops]


def _run_three_way(s_data, t_data, u_data, filter_specs, batch_size,
                   vectorized):
    ops, order = _build_three_way(filter_specs)
    eddy = Eddy(ops, output_sources={"S", "T", "U"},
                policy=FixedPolicy(order),
                batching=BatchingDirective(batch_size,
                                           vectorize=vectorized))
    rows = [_VS.make(a, k, timestamp=i)
            for i, (a, k) in enumerate(s_data)]
    rows += [_VT.make(b, k, timestamp=len(rows) + i)
             for i, (b, k) in enumerate(t_data)]
    rows += [_VU.make(c, k, timestamp=len(rows) + i)
             for i, (c, k) in enumerate(u_data)]
    results = []
    if vectorized:
        for schema in (_VS, _VT, _VU):
            group = [t for t in rows if t.schema is schema]
            for i in range(0, len(group), batch_size):
                batch = TupleBatch.from_tuples(group[i:i + batch_size])
                results.extend(eddy.process_batch(batch, 0))
    else:
        for t in rows:
            results.extend(eddy.process(t, 0))
    return _flatten(results), _data_plane_counters(eddy, ops)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                max_size=16),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                max_size=16),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)),
                max_size=16),
       st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.sampled_from(_V_OPS), st.integers(0, 4)),
                max_size=3),
       st.sampled_from([1, 2, 7, 32]))
def test_vectorized_three_way_composite_equals_per_tuple(
        s_data, t_data, u_data, filter_specs, batch_size):
    """Property: the batch path's composite fall-back (probe outputs
    re-routed per tuple inside process_batch) matches the per-tuple
    path's result multiset and data-plane counters on a 3-SteM/2-hop
    join plan with random filters."""
    per_tuple, counters_pt = _run_three_way(
        s_data, t_data, u_data, filter_specs, batch_size,
        vectorized=False)
    vectorized, counters_vec = _run_three_way(
        s_data, t_data, u_data, filter_specs, batch_size,
        vectorized=True)
    assert values_of(vectorized) == values_of(per_tuple)
    assert counters_vec == counters_pt


# ---------------------------------------------------------------- flux

def _run_flux_with_crash(data, fail_tick, victim_idx, replication,
                         speeds=(40, 40, 40, 40)):
    cluster = Cluster()
    for i, speed in enumerate(speeds):
        cluster.add_machine(f"m{i}", speed=speed)
    flux = Flux(cluster, n_partitions=6, key_fn=lambda t: t["sym"],
                state_factory=lambda: GroupCountState("sym"),
                replication=replication)
    victim = f"m{victim_idx}"
    i = 0
    tick = 0
    failed = False
    while i < len(data) or flux.unacked_total():
        batch = data[i:i + 60]
        i += len(batch)
        flux.tick(batch)
        tick += 1
        if not failed and tick == fail_tick:
            cluster.fail(victim)
            flux.on_machine_failure(victim)
            failed = True
        assert tick < 20_000
    return flux


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500), st.integers(1, 30), st.integers(0, 3))
def test_flux_replicated_crash_is_exactly_once(seed, fail_tick,
                                               victim_idx):
    """Property: with process pairs, a crash at ANY point — before,
    during, or after the data — never loses or double-counts a tuple."""
    rng = random.Random(seed)
    data = [TRADES.make(rng.choice("ABCDEFGH"), float(i), timestamp=i)
            for i in range(rng.randrange(200, 1500))]
    truth = {}
    for t in data:
        truth[t["sym"]] = truth.get(t["sym"], 0) + 1
    flux = _run_flux_with_crash(list(data), fail_tick, victim_idx,
                                replication=1)
    assert flux.merged_counts() == truth
    assert flux.lost_tuples == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 500), st.integers(1, 20), st.integers(0, 3))
def test_flux_unreplicated_loss_fully_accounted(seed, fail_tick,
                                                victim_idx):
    """Property: without replication, counted + lost == input, always —
    losses are measured, never silent."""
    rng = random.Random(seed)
    data = [TRADES.make(rng.choice("ABCD"), float(i), timestamp=i)
            for i in range(rng.randrange(200, 1000))]
    flux = _run_flux_with_crash(list(data), fail_tick, victim_idx,
                                replication=0)
    counted = sum(flux.merged_counts().values())
    assert counted + flux.lost_tuples == len(data)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 300), st.lists(st.integers(1, 40), min_size=2,
                                     max_size=3, unique=True))
def test_flux_survives_multiple_sequential_crashes(seed, fail_ticks):
    """Property: process pairs survive any sequence of single-machine
    crashes as long as one machine remains."""
    rng = random.Random(seed)
    data = [TRADES.make(rng.choice("ABCDEF"), float(i), timestamp=i)
            for i in range(800)]
    truth = {}
    for t in data:
        truth[t["sym"]] = truth.get(t["sym"], 0) + 1
    cluster = Cluster()
    for i in range(4):
        cluster.add_machine(f"m{i}", speed=40)
    flux = Flux(cluster, n_partitions=6, key_fn=lambda t: t["sym"],
                state_factory=lambda: GroupCountState("sym"),
                replication=1)
    victims = iter(sorted(set(fail_ticks)))
    next_fail = next(victims, None)
    killed = 0
    i = 0
    tick = 0
    while i < len(data) or flux.unacked_total():
        batch = data[i:i + 60]
        i += len(batch)
        flux.tick(batch)
        tick += 1
        if next_fail is not None and tick == next_fail and killed < 2:
            victim = f"m{killed}"
            cluster.fail(victim)
            flux.on_machine_failure(victim)
            killed += 1
            next_fail = next(victims, None)
        assert tick < 30_000
    assert flux.merged_counts() == truth
    assert flux.lost_tuples == 0
