"""E3 — §3.1 / [MSHR02]: CACQ's shared processing scales with the
number of standing queries.

Workload: N range-predicate continuous queries (``price > constant``)
over one stock stream, N swept from 10 to 1000.  Engines compared:

* per-query  — every tuple evaluated against every query (no sharing);
* NiagaraCQ  — static grouped plans; equality groups hash, but range
  constants are scanned linearly (the published design);
* CACQ       — one shared eddy + grouped filters (bisection).

Cost unit: predicate/constant comparisons per input tuple.  Expected
shape ([MSHR02] Figures 7-9): per-query and NiagaraCQ grow linearly in
N; CACQ grows ~logarithmically, so the gap widens with N — CACQ
"matches or significantly exceeds" the static systems.

Shared joins: N join queries over two streams that share ``S.k = T.k``
and differ in a band filter on ``S.v``, N swept over 10/50/200.  Cost
units per input tuple: SteM probes (a per-query plan scans its own
join state once per query) and match tuples built.  Expected shape: the
per-query plan is linear in N on both; CACQ runs the queries as one join
class (one probe per arriving row, each match a value row), so both
stay flat.
"""

import random

import pytest

from repro.baselines.niagara import NiagaraEngine
from repro.baselines.per_query import PerQueryEngine
from repro.core.cacq import CACQEngine
from repro.core.tuples import Schema, Tuple
from repro.ingress.generators import StockStreamGenerator
from repro.query.predicates import And, ColumnComparison, Comparison

from benchmarks.conftest import print_table

N_TUPLES = 400
SWEEP = [10, 50, 200, 1000]


def make_queries(engine, n, seed=5):
    rng = random.Random(seed)
    return [engine.add_query(["ClosingStockPrices"],
                             Comparison("closingPrice", ">",
                                        rng.uniform(20.0, 80.0)))
            for _ in range(n)]


def drive(engine_cls, n_queries):
    """Returns (comparisons-ish cost metric, delivered count)."""
    engine = engine_cls()
    engine.register_stream(StockStreamGenerator().schema)
    queries = make_queries(engine, n_queries)
    rows = StockStreamGenerator(seed=6, start_price=50.0,
                                volatility=3.0).take(N_TUPLES // 5)
    for t in rows:
        engine.push_tuple("ClosingStockPrices",
                          t.schema.make(*t.values, timestamp=t.timestamp))
    delivered = sum(q.delivered if hasattr(q, "delivered")
                    else len(q.results) for q in queries)
    return engine, delivered


def cost_of(engine):
    if isinstance(engine, PerQueryEngine):
        return engine.predicate_evaluations
    if isinstance(engine, NiagaraEngine):
        # range-constant scans dominate; add one per group probe.
        return engine.stats()["range_scans"] + engine.group_probes
    # CACQ: grouped-filter probes cost ~log2(n) comparisons each.
    total = 0
    for gf in engine.filters.values():
        total += gf.probes * gf.probe_cost_estimate()
    return total


def test_e3_shape():
    rows = []
    curves = {}
    for cls, label in ((PerQueryEngine, "per-query"),
                       (NiagaraEngine, "niagara"),
                       (CACQEngine, "cacq")):
        curve = []
        reference = None
        for n in SWEEP:
            engine, delivered = drive(cls, n)
            cost = cost_of(engine)
            curve.append(cost)
            if reference is None:
                reference = delivered
        curves[label] = curve
    for i, n in enumerate(SWEEP):
        rows.append((n, curves["per-query"][i], curves["niagara"][i],
                     curves["cacq"][i]))
    print_table("E3: comparison cost vs number of standing queries "
                f"({N_TUPLES} tuples)",
                ["queries", "per-query", "niagara", "cacq"], rows)
    # linear vs logarithmic growth: scaling N by 100x scales the
    # baselines' cost by ~100x but CACQ's far less.
    growth = {label: curve[-1] / curve[0] for label, curve in curves.items()}
    assert growth["per-query"] > 50
    assert growth["niagara"] > 50
    assert growth["cacq"] < 10
    # at N=1000 CACQ does at least an order of magnitude less work
    assert curves["cacq"][-1] * 10 < curves["per-query"][-1]
    assert curves["cacq"][-1] * 10 < curves["niagara"][-1]


def test_e3_answers_agree():
    """Sharing must not change answers: all three engines deliver the
    same result multiset at N=50."""
    deliveries = []
    for cls in (PerQueryEngine, NiagaraEngine, CACQEngine):
        engine = cls()
        engine.register_stream(StockStreamGenerator().schema)
        queries = make_queries(engine, 50)
        for t in StockStreamGenerator(seed=6, start_price=50.0,
                                      volatility=3.0).take(40):
            engine.push_tuple(
                "ClosingStockPrices",
                t.schema.make(*t.values, timestamp=t.timestamp))
        deliveries.append([len(q.results) for q in queries])
    assert deliveries[0] == deliveries[1] == deliveries[2]


@pytest.mark.benchmark(group="E3")
@pytest.mark.parametrize("engine_cls", [PerQueryEngine, NiagaraEngine,
                                        CACQEngine],
                         ids=["per-query", "niagara", "cacq"])
def test_e3_throughput_at_200_queries(benchmark, engine_cls):
    benchmark(drive, engine_cls, 200)


# -- shared joins -----------------------------------------------------------

JOIN_ROWS = 120                  # per stream
JOIN_SWEEP = [10, 50, 200]
S_KV = Schema.of("S", "k", "v")
T_KW = Schema.of("T", "k", "w")


def drive_joins(engine_cls, n_queries, seed=7):
    """N band-filtered queries sharing ``S.k = T.k``, fed alternating S
    and T rows: returns (SteM probes per tuple, match tuples built per
    tuple, each query's results as sorted value tuples)."""
    rng = random.Random(seed)
    engine = engine_cls()
    engine.register_stream(S_KV)
    engine.register_stream(T_KW)
    queries = []
    for _ in range(n_queries):
        lo = rng.randrange(0, 80)
        queries.append(engine.add_query(["S", "T"], And(
            ColumnComparison("S.k", "==", "T.k"),
            Comparison("S.v", ">", lo), Comparison("S.v", "<", lo + 30))))
    rows = [(rng.randrange(10), rng.randrange(100)) for _ in range(JOIN_ROWS)]
    built = []
    init = Tuple.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    Tuple.__init__ = counted
    try:
        for k, x in rows:
            engine.push("S", k=k, v=x)
            engine.push("T", k=k, w=x)
    finally:
        Tuple.__init__ = init
    pushed = 2 * JOIN_ROWS
    if isinstance(engine, CACQEngine):
        probes = sum(stem.probes for stem in engine.stems.values())
    else:
        probes = engine.join_scans
    results = [sorted(sorted(zip(t.schema.column_names(), t.values))
                      for t in q.results) for q in queries]
    return probes / pushed, (len(built) - pushed) / pushed, results


def test_e3_shared_joins_shape():
    rows = []
    curves = {"per-query": [], "cacq": []}
    for n in JOIN_SWEEP:
        per = drive_joins(PerQueryEngine, n)
        cacq = drive_joins(CACQEngine, n)
        assert cacq[2] == per[2]         # sharing changes no answer
        curves["per-query"].append(per[:2])
        curves["cacq"].append(cacq[:2])
        rows.append((n, f"{per[0]:.1f}", f"{per[1]:.1f}",
                     f"{cacq[0]:.2f}", f"{cacq[1]:.2f}"))
    print_table("E3: shared joins, per input tuple "
                f"({2 * JOIN_ROWS} tuples)",
                ["queries", "per-query probes", "per-query built",
                 "cacq probes", "cacq built"], rows)
    # Linear in N for the per-query plans, flat for CACQ: at most one
    # SteM probe per tuple (a row no query keeps probes nothing) at
    # every N, and no match built as a tuple.
    per, cacq = curves["per-query"], curves["cacq"]
    assert per[-1][0] == 20 * per[0][0]
    assert per[-1][1] > 10 * per[0][1]
    assert all(probes <= 1 and built == 0 for probes, built in cacq)
