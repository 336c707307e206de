"""E4 — §3.1: grouped-filter probe cost vs the naive filter bank.

Micro-benchmark of the shared index itself: N single-variable range
factors over one attribute, probe cost measured in comparisons (the
naive bank counts them exactly; the grouped filter bisects and ORs
cumulative query bitmaps, O(log N + sqrt N) big-int operations).

Expected shape: naive comparisons grow linearly with N; grouped-filter
probe *time* grows far slower, and the two always return identical
query sets.  ``test_e4_query_index_scale`` takes the index to 1 k, 10 k
and 100 k standing queries and times its three operations — probe
(``failing``, the bitmap the engines consume, and ``matching``, the same
decoded into a set of ids), add and remove — plus the first probe (which
builds the cumulative masks) and the probe after one add and one remove
(which settles the patched masks) into ``BENCH_query_index.json``.
"""

import random
import statistics

import pytest

from repro.core.grouped_filter import GroupedFilter, NaiveFilterBank
from repro.query.predicates import Comparison

from benchmarks.conftest import print_table, record_result


def build(n_queries, structure, spread=10_000, seed=7):
    rng = random.Random(seed)
    index = structure("price")
    for qid in range(n_queries):
        op = rng.choice([">", "<", ">=", "<=", "=="])
        index.add(Comparison("price", op, rng.randrange(spread)), qid)
    return index


def probe_many(index, n_probes=200, spread=10_000, seed=8):
    rng = random.Random(seed)
    total = 0
    for _ in range(n_probes):
        total += len(index.matching(rng.randrange(spread)))
    return total


def test_e4_shape():
    import time
    rows = []
    for n in (10, 100, 1000, 10_000):
        gf = build(n, GroupedFilter)
        bank = build(n, NaiveFilterBank)
        start = time.perf_counter()
        matches_gf = probe_many(gf)
        gf_time = time.perf_counter() - start
        start = time.perf_counter()
        matches_bank = probe_many(bank)
        bank_time = time.perf_counter() - start
        assert matches_gf == matches_bank
        rows.append((n, bank.comparisons, matches_gf,
                     bank_time / gf_time if gf_time else float("inf")))
    print_table("E4: 200 probes against N registered factors",
                ["factors", "naive comparisons", "answers",
                 "naive/grouped time"], rows)
    # naive comparisons scale linearly with N
    assert rows[-1][1] > 500 * rows[0][1]


def test_e4_identical_answers_random_workload():
    gf = build(500, GroupedFilter, seed=11)
    bank = build(500, NaiveFilterBank, seed=11)
    rng = random.Random(12)
    for _ in range(500):
        value = rng.randrange(10_000)
        assert gf.matching(value) == bank.matching(value)


def test_e4_query_index_scale():
    """Probe, add and remove at Q = 1 k / 10 k / 100 k standing queries
    (one factor each, constants shared from a 10 000-value domain)."""
    import time
    rows = []
    for n in (1_000, 10_000, 100_000):
        start = time.perf_counter()
        gf = build(n, GroupedFilter)
        add_us = (time.perf_counter() - start) / n * 1e6
        rng = random.Random(8)
        values = [rng.randrange(10_000) for _ in range(200)]
        # The first probe builds the cumulative masks; timed on its own,
        # it is what admission defers.
        start = time.perf_counter()
        gf.failing(values[0])
        rebuild_ms = (time.perf_counter() - start) * 1e3
        start = time.perf_counter()
        for value in values:
            gf.failing(value)
        failing_s = time.perf_counter() - start
        start = time.perf_counter()
        answers = sum(len(gf.matching(value)) for value in values)
        matching_us = (time.perf_counter() - start) / len(values) * 1e6
        bank = build(n, NaiveFilterBank)
        naive = values[:20]
        start = time.perf_counter()
        naive_answers = [bank.matching(value) for value in naive]
        naive_us = (time.perf_counter() - start) / len(naive) * 1e6
        assert naive_answers == [gf.matching(value) for value in naive]
        cumulative_kb = gf.cumulative_bits() / 8 / 1024
        victims = random.Random(9).sample(range(n), 500)
        start = time.perf_counter()
        for qid in victims:
            gf.remove_query(qid)
        remove_us = (time.perf_counter() - start) / len(victims) * 1e6
        # After the first probe, admit and cancel patch the masks: one
        # add and one remove_query, then the probe that settles them, timed.
        churn = random.Random(10)
        live = sorted(set(range(n)) - set(victims))
        after_change = []
        for qid in range(n, n + 20):
            gf.add(Comparison("price", churn.choice([">", "<", ">=", "<="]),
                              churn.randrange(10_000)), qid)
            gf.remove_query(live.pop(churn.randrange(len(live))))
            start = time.perf_counter()
            gf.failing(churn.randrange(10_000))
            after_change.append((time.perf_counter() - start) * 1e3)
        change_ms = statistics.median(after_change)
        failing_us = failing_s / len(values) * 1e6
        rows.append((n, failing_us, matching_us, naive_us,
                     naive_us / failing_us, answers // len(values),
                     add_us, remove_us, rebuild_ms, change_ms, cumulative_kb))
        record_result(
            "query_index", {"queries": n, "probes": len(values),
                            "constant_domain": 10_000},
            throughput=len(values) / failing_s, wall_clock_s=failing_s,
            failing_us=round(failing_us, 3),
            matching_us=round(matching_us, 3),
            naive_matching_us=round(naive_us, 3),
            answers_per_probe=answers // len(values),
            add_us=round(add_us, 3), remove_query_us=round(remove_us, 3),
            first_probe_rebuild_ms=round(rebuild_ms, 3),
            first_probe_after_change_ms=round(change_ms, 4),
            cumulative_mask_kb=round(cumulative_kb, 1))
    print_table("E4 at scale: one grouped filter, Q standing queries",
                ["Q", "failing us", "matching us", "naive us",
                 "naive/failing", "answers", "add us", "remove us",
                 "build ms", "after change ms", "cum. masks KB"], rows)
    # The naive bank is linear in Q; the bitmap probe must beat it widely
    # at every size and fall further ahead as Q grows.
    assert all(row[4] > 20 for row in rows)
    assert rows[-1][4] > rows[0][4]


@pytest.mark.benchmark(group="E4")
@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_e4_grouped_probe_timing(benchmark, n):
    gf = build(n, GroupedFilter)
    benchmark(probe_many, gf, 50)


@pytest.mark.benchmark(group="E4")
@pytest.mark.parametrize("n", [100, 1000, 10_000])
def test_e4_naive_probe_timing(benchmark, n):
    bank = build(n, NaiveFilterBank)
    benchmark(probe_many, bank, 50)
