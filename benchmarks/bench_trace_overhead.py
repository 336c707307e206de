"""Tuple-tracing overhead — the cost discipline behind "always on".

The tracing layer (:mod:`repro.monitor.tracing`) stays compiled into
the hot path permanently, so its *disabled* cost is the number that
matters.  With ``sample_every=0`` every queue/egress site pays one
``TRACER.active`` attribute test and every per-tuple site one
``t.trace is None`` slot load — nothing else.  There is no
guard-free build to diff against, so the <5% gate measures those two
guards directly (empty-loop cost subtracted) and relates them, at a
deliberately pessimistic sites-per-tuple count, to what a tuple costs
through the front door (``push_rows`` -> CACQ batch path -> cursor
``fetch``), the path every client tuple takes.

The shape benchmark also prices the *diagnosis* configurations on an
E1-style eddy workload (two drifting filters under lottery routing,
inside a Fjord so queue hops are exercised):

* **dormant**      — ``sample_every=0``, flight recorder off (the
  production default);
* **sampled/100**  — every 100th ingress tuple traced, flight recorder
  off;
* **full**         — every tuple traced plus the flight recorder: the
  worst case, bounded only by the rings.

Enabling tracing is honestly not free — with the tracer active every
queue transfer performs a real (guarded) hop check — but that price is
paid only while someone is looking; the gate protects everyone else.
"""

import time

import pytest

import repro.monitor.introspect as introspect
import repro.monitor.tracing as tracing
from repro.core.eddy import Eddy, FilterOperator
from repro.core.routing import LotteryPolicy
from repro.core.tuples import Schema
from repro.fjords.fjord import Fjord
from repro.fjords.module import CollectingSink
from repro.ingress.generators import DriftingSelectivityGenerator
from repro.query.predicates import Comparison

from benchmarks.conftest import print_table, record_result
from tests.conftest import ListFeed

N = 6000
PRED_A = Comparison("a", "==", 1)
PRED_B = Comparison("b", "==", 1)

#: Pessimistic per-tuple guard counts for the gate: a tuple crossing
#: the benchmark pipeline hits 4 queue transfers + source + egress
#: (``TRACER.active`` tests) and a handful of ``t.trace`` slot tests
#: inside the eddy.
ACTIVE_CHECKS_PER_TUPLE = 8
SLOT_CHECKS_PER_TUPLE = 8


def fresh_rows():
    return DriftingSelectivityGenerator(seed=17, flip_at=0,
                                        low_pass=0.1,
                                        high_pass=0.9).take(N)


def pipeline_run(rows):
    ops = [FilterOperator(PRED_A, name="fa"),
           FilterOperator(PRED_B, name="fb")]
    eddy = Eddy(ops, output_sources={"drift"},
                policy=LotteryPolicy(seed=1, explore=0.05))
    sink = CollectingSink("sink")
    f = Fjord()
    f.connect(ListFeed(rows, chunk=64), eddy)
    f.connect(eddy, sink)
    f.run_until_finished()
    return sink


def configured(sample_every, recorder):
    tracing.TRACER.configure(sample_every=sample_every, capacity=256)
    tracing.TRACER.reset()
    introspect.RECORDER.configure(capacity=512, enabled=recorder)
    introspect.RECORDER.clear()


def timed(sample_every, recorder, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        rows = fresh_rows()
        configured(sample_every, recorder)
        start = time.perf_counter()
        pipeline_run(rows)
        best = min(best, time.perf_counter() - start)
    configured(0, False)
    return best


def guard_costs(iters=200_000, repeats=5):
    """Per-check cost of the two dormant guards, empty loop subtracted;
    each loop timed ``repeats`` times and the fastest kept, so one
    preempted pass does not set a guard's price."""
    t = Schema.of("S", "a").make(1)
    empty = active = slot = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            pass
        empty = min(empty, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(iters):
            if tracing.TRACER.active:
                pass
        active = min(active, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(iters):
            if t.trace is not None:
                pass
        slot = min(slot, time.perf_counter() - start)
    return (max(0.0, active - empty) / iters,
            max(0.0, slot - empty) / iters)


def test_trace_overhead_shape():
    t_dormant = timed(0, recorder=False)
    t_sampled = timed(100, recorder=False)
    t_full = timed(1, recorder=True)
    active_chk, slot_chk = guard_costs()
    dormant_guard = (ACTIVE_CHECKS_PER_TUPLE * active_chk +
                     SLOT_CHECKS_PER_TUPLE * slot_chk)
    per_tuple = t_dormant / N
    print_table(
        f"tuple-tracing overhead on the eddy fjord workload (n={N})",
        ["configuration", "seconds", "vs dormant"],
        [("dormant (sample=0)", f"{t_dormant:.4f}", 1.0),
         ("sampled/100", f"{t_sampled:.4f}", t_sampled / t_dormant),
         ("full (sample=1) + recorder", f"{t_full:.4f}",
          t_full / t_dormant)])
    print(f"  dormant guards: {active_chk * 1e9:.0f}ns active-check, "
          f"{slot_chk * 1e9:.0f}ns slot-check -> "
          f"{dormant_guard / per_tuple * 100:.2f}% of the "
          f"{per_tuple * 1e6:.2f}us per-tuple cost")
    record_result(
        "trace",
        params={"n": N, "workload": "eddy-fjord-lottery"},
        throughput=N / t_dormant,
        wall_clock_s=t_dormant,
        sampled_100_vs_dormant=round(t_sampled / t_dormant, 4),
        full_vs_dormant=round(t_full / t_dormant, 4),
        dormant_guard_fraction=round(dormant_guard / per_tuple, 5))
    # Loose shape bounds; the perf-marked gate below holds the 5% line.
    assert t_sampled < t_dormant * 2.0
    assert t_full < t_dormant * 5.0


#: The dormant guards a row meets between ``push_rows`` and the client's
#: ``fetch``, counted as if every row were kept and delivered.  A row
#: stays a value tuple until CACQ keeps it, and a row built at its turn
#: carries no trace, so the row loop reads no ``t.trace``; what is left
#: is ``t.trace`` in ``CACQEngine._deliver``, in ``SteM.build`` (a
#: stream with a join) and once to spare.  A pull cursor's results are
#: appended, not queued, so no ``TRACER.active`` is read per row: the
#: two per-batch reads (``IngressPoint.admit``, ``push_batch``) are
#: counted as if they were per row.
DOOR_ACTIVE_CHECKS_PER_TUPLE = 2
DOOR_SLOT_CHECKS_PER_TUPLE = 3
DOOR_ROWS, DOOR_BATCH = 51_200, 256


def door_per_tuple(repeats=5):
    """Seconds per tuple through the front door with tracing dormant:
    eight disjoint band queries (the cheapest standing load tcqbench
    measures, so the guards weigh the most), 256-row ``push_rows``,
    every cursor fetched after every batch."""
    from repro.client import connect
    configured(0, recorder=False)
    rows = [((37 * i) % 1000, i) for i in range(DOOR_ROWS)]
    best = float("inf")
    for _ in range(repeats):
        with connect() as conn:
            conn.create_stream("s", "price", "seq")
            cursors = [conn.submit(f"SELECT * FROM s WHERE price > {120 * k}"
                                   f" AND price < {120 * k + 50}")
                       for k in range(8)]
            start = time.perf_counter()
            for k in range(0, DOOR_ROWS, DOOR_BATCH):
                conn.push_rows("s", rows[k:k + DOOR_BATCH])
                for cursor in cursors:
                    cursor.fetch()
            best = min(best, time.perf_counter() - start)
    return best / DOOR_ROWS


@pytest.mark.perf
def test_trace_disabled_overhead_gate():
    """Perf gate, through the door: with sampling disabled, the tracing
    instrumentation's entire per-tuple cost — its guards, counted
    pessimistically — is <5% of what a tuple costs from ``push_rows``
    to ``fetch``."""
    per_tuple = door_per_tuple()
    active_chk, slot_chk = guard_costs()
    dormant_guard = (DOOR_ACTIVE_CHECKS_PER_TUPLE * active_chk +
                     DOOR_SLOT_CHECKS_PER_TUPLE * slot_chk)
    print(f"  door: {per_tuple * 1e6:.2f}us per tuple, dormant guards "
          f"{dormant_guard * 1e9:.0f}ns = "
          f"{dormant_guard / per_tuple * 100:.2f}%")
    assert dormant_guard < 0.05 * per_tuple, (
        f"dormant tracing guards cost {dormant_guard * 1e9:.0f}ns/tuple "
        f"= {dormant_guard / per_tuple * 100:.2f}% of the "
        f"{per_tuple * 1e6:.2f}us a tuple costs through the door "
        f"(gate: 5%)")
