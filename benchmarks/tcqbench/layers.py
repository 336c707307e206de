"""Layer replays: a workload's own inputs fed straight into one layer.

Each function times one layer's public functions on the rows and query
texts the workload generated, outside the server, and returns
``{metric name: value}``.  A replay runs only for layers the workload
exercises; the rest report 0.  The numbers say what the layer costs in
isolation; how much of it the front door pays is read from the spans.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Sequence

from repro.analysis.plan_check import AdmissionContext, check_compiled
from repro.core.cacq import CACQEngine
from repro.core.eddy import Eddy, FilterOperator
from repro.core.grouped_filter import GroupedFilter
from repro.core.routing import BatchingDirective, LotteryPolicy
from repro.core.stem import SteM
from repro.core.tuples import Schema, TupleBatch
from repro.core.windows import HistoricalStore
from repro.fjords.queues import PushQueue
from repro.net.frames import FrameDecoder, encode_frame, rows_to_wire
from repro.query.catalog import Catalog
from repro.query.optimizer import compile_query
from repro.query.parser import parse
from repro.query.predicates import ColumnComparison, Comparison, decompose

from workloads import FilterWorkload, NetDoor, WindowedJoin, Workload

#: Replays are bounded so a traced run stays inside its time budget.
MAX_QUERIES = 400
MAX_TUPLES = 20_000
MAX_SLOW_TUPLES = 1_500        # bare CACQ at Q=1000 costs ~0.4 ms/tuple
EDDY_BATCH = 1024


def _each_us(fn: Callable[[Any], Any], items: Iterable[Any]) -> float:
    """Median wall time of ``fn(item)``, in microseconds."""
    times = []
    for item in items:
        t0 = time.perf_counter_ns()
        fn(item)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e3 if times else 0.0


def _chunked_us(fn: Callable[[Sequence[Any]], Any], items: Sequence[Any],
                chunks: int = 5) -> float:
    """Per-item wall time of ``fn(chunk)``: the items go through in
    ``chunks`` slices and the median slice counts, so one slow stretch of
    the machine does not set the number."""
    size = max(1, -(-len(items) // chunks))
    times = []
    for i in range(0, len(items), size):
        chunk = items[i:i + size]
        t0 = time.perf_counter_ns()
        fn(chunk)
        times.append((time.perf_counter_ns() - t0) / len(chunk))
    return statistics.median(times) / 1e3 if times else 0.0


def _catalog(w: Workload) -> Catalog:
    catalog = Catalog()
    for schema in w.streams:
        catalog.create_stream(Schema.of(*schema))
    return catalog


def query_layers(w: Workload) -> Dict[str, float]:
    """parse -> compile -> plan check over the workload's query texts."""
    catalog = _catalog(w)
    texts = w.all_texts()[:MAX_QUERIES]
    out = {"query.parse_us": _each_us(parse, texts)}
    specs = [parse(t) for t in texts]
    out["query.compile_us"] = _each_us(
        lambda s: compile_query(s, catalog), specs)
    compiled = [compile_query(s, catalog) for s in specs]
    context = AdmissionContext()
    out["analysis.plan_check_us"] = _each_us(
        lambda c: check_compiled(c, catalog, context), compiled)
    return out


def _predicates(w: FilterWorkload) -> List[Any]:
    catalog = _catalog(w)
    return [compile_query(parse(t), catalog).predicate
            for t in w.standing_texts()]


def cacq_layer(w: FilterWorkload, predicates: List[Any]) -> Dict[str, float]:
    """A bare shared engine holding the workload's standing predicates."""
    schema = Schema.of(*w.streams[0])
    engine = CACQEngine()
    engine.register_stream(schema)
    queries: List[Any] = []
    out = {"cacq.add_query_us": _each_us(
        lambda p: queries.append(engine.add_query(["trades"], p)),
        predicates)}
    rows = w.rows[:MAX_SLOW_TUPLES if len(predicates) > 64 else MAX_TUPLES]
    tuples = [schema.make(*r, timestamp=i) for i, r in enumerate(rows)]

    def push(chunk: Sequence[Any]) -> None:
        for t in chunk:
            engine.push_tuple("trades", t)

    out["cacq.push_tuple_us"] = _chunked_us(push, tuples)
    out["cacq.remove_query_us"] = _each_us(engine.remove_query,
                                           queries[:MAX_QUERIES])
    return out


def grouped_filter_layer(w: FilterWorkload,
                         predicates: List[Any]) -> Dict[str, float]:
    """One grouped filter per attribute, as the shared engine keeps them,
    registered with every standing query's single-variable factors."""
    columns = w.streams[0][1:]
    filters: Dict[str, GroupedFilter] = {}
    factors = []
    for qid, predicate in enumerate(predicates):
        for f in decompose(predicate).single_variable:
            attr = f.column.rsplit(".", 1)[-1]
            filters.setdefault(attr, GroupedFilter(attr))
            factors.append((attr, Comparison(attr, f.op, f.value), qid))
    out = {"grouped_filter.add_us": _each_us(
        lambda a: filters[a[0]].add(a[1], a[2]), factors)}
    n_queries = max((qid for _a, _f, qid in factors), default=-1) + 1
    rows = w.rows[:MAX_SLOW_TUPLES * 2 if n_queries > 64 else MAX_TUPLES]
    positions = [(gf, columns.index(attr)) for attr, gf in filters.items()]
    batch = w.size["batch"]

    def probe_each(chunk: Sequence[Any]) -> None:
        for gf, i in positions:
            matching = gf.matching
            for row in chunk:
                matching(row[i])

    def probe_batched(chunk: Sequence[Any]) -> None:
        for gf, i in positions:
            values = [row[i] for row in chunk]
            for k in range(0, len(values), batch):
                gf.matching_batch(values[k:k + batch])

    # Per probe: every row probes every attribute's filter once.
    out["grouped_filter.matching_us"] = \
        _chunked_us(probe_each, rows) / max(1, len(filters))
    out["grouped_filter.matching_batch_us"] = \
        _chunked_us(probe_batched, rows) / max(1, len(filters))

    def remove(qid: int) -> None:
        for gf in filters.values():
            gf.remove_query(qid)

    out["grouped_filter.remove_query_us"] = _each_us(
        remove, range(min(n_queries, MAX_QUERIES)))
    return out


def eddy_layer(w: FilterWorkload, predicates: List[Any]) -> Dict[str, float]:
    """A bare eddy over the first standing query's factors: per-tuple
    routing against one columnar batch per ``EDDY_BATCH`` rows (whole
    batches only, so both legs route the same rows)."""
    schema = Schema.of(*w.streams[0])
    factors = decompose(predicates[0]).single_variable
    batch = min(EDDY_BATCH, len(w.rows))
    rows = w.rows[:min(MAX_TUPLES, len(w.rows)) // batch * batch]

    def eddy(vectorize: bool) -> Eddy:
        ops = [FilterOperator(f, name=f"f{i}") for i, f in enumerate(factors)]
        return Eddy(ops, output_sources={"trades"},
                    policy=LotteryPolicy(seed=2, explore=0.05),
                    batching=BatchingDirective(batch, vectorize=vectorize))

    # Routing mutates tuples in place: each leg gets its own.
    per_tuple, tuples = eddy(False), [schema.make(*r, timestamp=i)
                                      for i, r in enumerate(rows)]

    def route_each(chunk: Sequence[Any]) -> None:
        for t in chunk:
            per_tuple.process(t, 0)

    out = {"eddy.process_us_per_tuple": _chunked_us(route_each, tuples)}
    batched = eddy(True)
    tuple_batches = [
        TupleBatch.from_tuples(
            [schema.make(*r, timestamp=i + j)
             for j, r in enumerate(rows[i:i + batch])],
            retain_rows=False)
        for i in range(0, len(rows), batch)]

    def route_batches(chunk: Sequence[Any]) -> None:
        for tuple_batch in chunk:
            batched.process_batch(tuple_batch, 0)

    out["eddy.process_batch_us_per_tuple"] = \
        _chunked_us(route_batches, tuple_batches) / batch
    return out


def stem_layer(w: WindowedJoin) -> Dict[str, float]:
    """A bare SteM on the join key: build one window of ``trades``, probe
    it with the same window of ``quotes``; ten disjoint windows."""
    trades_schema, quotes_schema = (Schema.of(*s) for s in w.streams)
    join = [ColumnComparison("trades.sym", "==", "quotes.sym")]
    width = w.size["join_width"]
    build_ns = probe_ns = builds = probes = hits = size_peak = 0
    for k in range(min(10, len(w.trades) // width)):
        lo = k * width
        stem = SteM("trades", index_columns=("trades.sym",))
        build = [trades_schema.make(*r, timestamp=r[3])
                 for r in w.trades[lo:lo + width]]
        probe = [quotes_schema.make(*r, timestamp=r[2])
                 for r in w.quotes[lo:lo + width]]
        t0 = time.perf_counter_ns()
        for t in build:
            stem.build(t)
        t1 = time.perf_counter_ns()
        for t in probe:
            stem.probe(t, join)
        probe_ns += time.perf_counter_ns() - t1
        build_ns += t1 - t0
        builds += len(build)
        probes += stem.probes
        hits += stem.probe_hits
        size_peak = max(size_peak, len(stem))
    return {"stem.build_us": build_ns / 1e3 / max(1, builds),
            "stem.probe_us": probe_ns / 1e3 / max(1, probes),
            "stem.hit_ratio": hits / max(1, probes),
            "stem.size_peak": float(size_peak)}


def store_layer(w: Workload, rows: Sequence[Sequence[Any]],
                windows: Iterable[int] = (), width: int = 0) -> Dict[str, float]:
    """The historical store every pushed tuple is materialised in, and
    the range scan each window evaluation starts with."""
    schema = Schema.of(*w.streams[0])
    store = HistoricalStore(schema.name)
    tuples = [schema.make(*r, timestamp=i + 1)
              for i, r in enumerate(rows[:MAX_TUPLES])]

    def append(chunk: Sequence[Any]) -> None:
        for t in chunk:
            store.append(t)

    out = {"windows.store_append_us": _chunked_us(append, tuples)}
    out["windows.store_scan_us"] = _each_us(
        lambda t: store.scan(t - width + 1, t),
        [t for t in windows if t <= len(tuples)])
    return out


def queue_layer() -> Dict[str, float]:
    """The fjord queue a cursor's results wait in: one push, one pop."""
    queue = PushQueue(name="replay")

    def push_pop(chunk: Sequence[Any]) -> None:
        for item in chunk:
            queue.push(item)
        for _ in chunk:
            queue.pop()

    return {"fjords.queue_push_pop_us":
            _chunked_us(push_pop, range(MAX_TUPLES))}


def net_layer(w: NetDoor) -> Dict[str, float]:
    """The frame codec over the workload's own PUSH frames and the rows a
    FETCH reply carries back."""
    schema = Schema.of(*w.streams[0])
    frames = [{"op": "PUSH", "id": i, "stream": "trades",
               "rows": [list(r) for r in rows], "timestamp": None}
              for i, rows in enumerate(w.batches[:1000])]
    out = {"net.encode_frame_us": _each_us(encode_frame, frames)}
    decoder = FrameDecoder()
    out["net.decode_frame_us"] = _each_us(
        decoder.feed, [encode_frame(f) for f in frames])
    replies = [[schema.make(*r, timestamp=i) for r in rows]
               for i, rows in enumerate(w.batches[:1000])]
    rows_per_reply = max(1, w.size["batch"])
    out["net.rows_to_wire_us"] = _each_us(rows_to_wire, replies) / rows_per_reply
    return out


#: Every replay metric, so a workload that skips a layer still reports it.
REPLAY_METRICS = (
    "query.parse_us", "query.compile_us", "analysis.plan_check_us",
    "cacq.add_query_us", "cacq.remove_query_us", "cacq.push_tuple_us",
    "grouped_filter.add_us", "grouped_filter.matching_us",
    "grouped_filter.matching_batch_us", "grouped_filter.remove_query_us",
    "eddy.process_us_per_tuple", "eddy.process_batch_us_per_tuple",
    "stem.build_us", "stem.probe_us", "stem.hit_ratio", "stem.size_peak",
    "windows.store_append_us", "windows.store_scan_us",
    "fjords.queue_push_pop_us",
    "net.encode_frame_us", "net.decode_frame_us", "net.rows_to_wire_us",
)


def replay(w: Workload) -> Dict[str, float]:
    out = dict.fromkeys(REPLAY_METRICS, 0.0)
    out.update(query_layers(w))
    out.update(queue_layer())
    if isinstance(w, FilterWorkload):
        predicates = _predicates(w)
        out.update(cacq_layer(w, predicates))
        out.update(grouped_filter_layer(w, predicates))
        out.update(eddy_layer(w, predicates))
        out.update(store_layer(w, w.rows))
    if isinstance(w, WindowedJoin):
        out.update(stem_layer(w))
        out.update(store_layer(w, w.trades, w.join_ts, w.size["join_width"]))
    if isinstance(w, NetDoor):
        out.update(net_layer(w))
    return out
