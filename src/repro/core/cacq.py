"""CACQ: Continuously Adaptive Continuous Queries (Section 3.1, [MSHR02]).

CACQ modifies the eddy to execute *many* queries simultaneously: the eddy
runs a single "super-query" — the disjunction of all client queries — and
every tuple carries **lineage** (a query bitmap) recording which queries
are still interested in it.  The two sharing mechanisms are:

* **grouped filters** — one shared index per (stream, attribute) holds
  the single-variable boolean factors of every query, so one probe
  evaluates all of them (:mod:`repro.core.grouped_filter`);
* **shared SteMs** — one SteM per stream holds each base tuple once; all
  join queries over those streams probe the same state.  Join queries
  with one footprint and one set of equijoin factors form a *join
  class*: an arriving row runs the class's bound join steps once
  (:func:`~repro.core.stem.join_route` from its stream) for every
  query of the class, and lineage says which queries each match is for.

Query bitmaps are plain Python integers, so the engine supports an
unbounded number of simultaneous queries; queries can be added and
removed while data is flowing (the robustness requirement of Section
1.1).

There is one data path, :meth:`CACQEngine.push_batch`: a batch of one
stream's rows meets each grouped filter once, on the rows' values (the
batch's lineage is a column of masks, one per row), and the survivors
then build, deliver and run their join classes one by one in arrival
order.  A survivor becomes a :class:`~repro.core.tuples.Tuple` only
where a SteM stores it; otherwise it is delivered as a
:class:`~repro.core.tuples.Row`, and so is every join match.  A single
tuple is a batch of one.

The engine is deliberately independent of the Fjord scheduler so it can
be benchmarked head-to-head against the per-query and NiagaraCQ-style
baselines; the TelegraphCQ server (:mod:`repro.core.engine`) owns one
engine for every stream and continuous query, and hands it each admitted
batch synchronously.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import defaultdict
from functools import reduce
from operator import itemgetter
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple as TypingTuple, Union)

import repro.monitor.tracing as tracing
from repro.core.grouped_filter import GroupedFilter
from repro.core.stem import JoinStep, SteM, join_route
from repro.core.tuples import Row, Rows, Schema, Tuple, joined_timestamp
from repro.errors import QueryError
from repro.monitor.telemetry import get_registry
from repro.query.predicates import (ALWAYS_TRUE, ColumnComparison, Comparison,
                                    Predicate, decompose, join_order)

_CACQ_IDS = itertools.count()

#: One grouped-filter pass over a batch: the attribute, its filter, and
#: the (ascending) arrival indexes it probed and those it left alive.
_Stage = TypingTuple[str, GroupedFilter, Sequence[int], List[int]]


def _holds(sorted_indexes: Sequence[int], i: int) -> bool:
    k = bisect_left(sorted_indexes, i)
    return k < len(sorted_indexes) and sorted_indexes[k] == i


class ContinuousQuery:
    """One registered client query.

    ``footprint`` is the set of streams the query reads (Section 4.2.2's
    query footprint); ``predicate`` its WHERE clause.  Results are
    appended to :attr:`results` or pushed through ``callback``.

    :attr:`results` may be replaced by a list its reader owns (a pull
    cursor's buffer, which it drains); :attr:`egress` then names the
    trace stage a sampled result closes at when appended.
    """

    def __init__(self, qid: int, footprint: FrozenSet[str],
                 predicate: Predicate,
                 callback: Optional[Callable[[Row], None]] = None,
                 name: str = ""):
        self.qid = qid
        self.bit = 1 << qid
        self.footprint = footprint
        self.predicate = predicate
        decomposed = decompose(predicate)
        self.single_factors = decomposed.single_variable
        self.join_factors = decomposed.equijoins
        self.residual = decomposed.residual_predicate()
        self.callback = callback
        self.name = name or f"q{qid}"
        self.results: List[Row] = []
        #: results handed to ``callback`` (those in ``results`` are
        #: counted by the list's length).
        self._passed = 0
        self.egress: Optional[str] = None
        #: where the engine registered this query at admission — the
        #: only shared state its removal has to visit.
        self.filter_keys: List[TypingTuple[str, str]] = []
        self.join_class: Optional[JoinClass] = None
        #: the schema of the rows delivered to it: its stream's, or its
        #: join class's (set at admission).
        self.schema: Optional[Schema] = None

    @property
    def delivered(self) -> int:
        """Results delivered: through the callback, or still in
        :attr:`results` (a reader that drains the list counts what it
        took)."""
        return self._passed + len(self.results)

    @delivered.setter
    def delivered(self, count: int) -> None:
        self._passed = count - len(self.results)

    def deliver(self, row: Row) -> None:
        """The sink for a callback or a sampled row; the engine appends
        an untraced row for a query with no callback itself."""
        if self.callback is not None:
            self._passed += 1
            self.callback(row)
            return
        self.results.append(row)
        tr = row.trace
        if tr is not None and self.egress is not None:
            tr.hop("egress", self.egress)
            tracing.TRACER.finish(tr, self.egress)

    def __repr__(self) -> str:
        return (f"ContinuousQuery({self.name}, over="
                f"{'|'.join(sorted(self.footprint))}, {self.predicate!r})")


class JoinClass:
    """The join queries over one footprint with one set of equijoin
    factors (``key``): their bits, the :attr:`schema` their matches are
    delivered in (the streams in the first query's FROM order), and
    ``routes``: per stream whose factors reach every other, its
    :func:`~repro.core.stem.join_route` and the picker
    that puts a match's values in the schema's order (None: they are).
    """

    __slots__ = ("key", "mask", "schema", "routes")

    def __init__(self, key: Any, schemas: List[Schema],
                 factors: List[ColumnComparison],
                 stem_of: Callable[[str, Optional[str]], SteM]):
        self.key = key
        self.mask = 0
        self.schema = reduce(Schema.join, schemas)
        self.routes: Dict[str, TypingTuple[List[JoinStep],
                                           Optional[Callable]]] = {}
        for schema in schemas:
            stream = schema.name
            if len(join_order(stream, factors)) < len(schemas):
                continue
            steps, joined = join_route(stream, schemas, factors, stem_of)
            self.routes[stream] = (
                steps,
                None if joined is self.schema else itemgetter(
                    *map(joined.index_of, self.schema.column_names())))


class CACQEngine:
    """The shared continuous-query processor.

    Typical use::

        engine = CACQEngine()
        engine.register_stream(Schema.of("trades", "sym", "price"))
        q = engine.add_query(["trades"], Comparison("price", ">", 50.0))
        engine.push("trades", sym="MSFT", price=55.0)
        assert q.results
    """

    def __init__(self):
        self.schemas: Dict[str, Schema] = {}
        self.queries: Dict[int, ContinuousQuery] = {}
        self._next_qid = itertools.count()
        # Shared state: grouped filters keyed by (stream, attribute);
        # one SteM per stream, created when a join query first needs it.
        self.filters: Dict[TypingTuple[str, str], GroupedFilter] = {}
        # The same filters per stream, in creation order: what one tuple
        # of that stream is routed through.
        self._stream_filters: Dict[str, List[TypingTuple[str,
                                                         GroupedFilter]]] = \
            defaultdict(list)
        self.stems: Dict[str, SteM] = {}
        # Join classes by (footprint, equijoin column pairs).
        self.join_classes: Dict[TypingTuple[FrozenSet[str], FrozenSet[Any]],
                                JoinClass] = {}
        # Masks: which query bits read each stream, which read it alone
        # (its selection-only queries), and which join it (the bits of
        # the join classes whose footprint holds it: a row its SteM
        # keeps has one of them).
        self._source_mask: Dict[str, int] = defaultdict(int)
        self._home_mask: Dict[str, int] = defaultdict(int)
        self._keep_mask: Dict[str, int] = defaultdict(int)
        #: bumped by every admission and removal; a batch in flight
        #: compares it after each row (see :meth:`push_batch`).
        self.generation = 0
        self.tuples_in = 0
        self.results_out = 0
        self.filter_probes = 0
        self.stem_probes = 0
        self._telemetry = get_registry()
        self._telemetry_id = f"cacq#{next(_CACQ_IDS)}"
        self._telemetry.register_collector(self._publish_telemetry)

    # -- telemetry -----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        engine = self._telemetry_id
        reg.counter("tcq_cacq_tuples_in_total",
                    "Tuples processed by the shared CACQ eddy", ("engine",),
                    collected=True).labels(engine).set_total(self.tuples_in)
        reg.counter("tcq_cacq_results_out_total",
                    "Query results delivered by CACQ", ("engine",),
                    collected=True).labels(engine).set_total(
            self.results_out)
        reg.counter("tcq_cacq_filter_probes_total",
                    "Grouped-filter probe operations", ("engine",),
                    collected=True).labels(engine).set_total(
            self.filter_probes)
        reg.counter("tcq_cacq_stem_probes_total",
                    "SteM probe operations issued by CACQ", ("engine",),
                    collected=True).labels(engine).set_total(
            self.stem_probes)
        reg.gauge("tcq_cacq_queries", "Standing continuous queries",
                  ("engine",), collected=True).labels(engine).set(
            len(self.queries))
        reg.gauge("tcq_cacq_stems", "Shared SteMs in the CACQ engine",
                  ("engine",), collected=True).labels(engine).set(
            len(self.stems))

    # -- catalog -------------------------------------------------------------
    def register_stream(self, schema: Schema) -> None:
        if not schema.name:
            raise QueryError("stream schema needs a name")
        self.schemas[schema.name] = schema

    # -- query management ------------------------------------------------------
    def add_query(self, streams: Sequence[str], predicate: Predicate,
                  callback: Optional[Callable[[Row], None]] = None,
                  name: str = "") -> ContinuousQuery:
        """Register a continuous query over ``streams`` and fold it into
        the running shared state — no pause, no replanning of other
        queries (the paper's on-the-fly sharing adaptivity).

        A query the engine cannot take -- an unknown stream or column,
        or a constant its grouped filter cannot order against the
        thresholds it holds -- raises :class:`QueryError` before any
        shared state moves."""
        for s in streams:
            if s not in self.schemas:
                raise QueryError(f"unknown stream {s!r}; register it first")
        footprint = frozenset(streams)
        query = ContinuousQuery(next(self._next_qid), footprint, predicate,
                                callback=callback, name=name)
        by_filter: Dict[TypingTuple[str, str], List[Comparison]] = {}
        for factor in query.single_factors:
            stream = self._stream_of_column(factor.column, footprint)
            attr = factor.column.rsplit(".", 1)[-1]
            by_filter.setdefault((stream, attr), []).append(
                Comparison(attr, factor.op, factor.value))
        for (stream, attr), factors in by_filter.items():
            (self.filters.get((stream, attr))
             or GroupedFilter(attr)).refuse_unordered(factors)
        for column in {c for f in query.join_factors for c in f.columns()}:
            self._stream_of_column(column, footprint)   # refuses an unknown one
        cls = None
        if len(footprint) > 1:
            key = (footprint, frozenset(frozenset(f.columns())
                                        for f in query.join_factors))
            cls = self.join_classes.get(key) or JoinClass(
                key, [self.schemas[s] for s in dict.fromkeys(streams)],
                query.join_factors, self._stem)

        self.queries[query.qid] = query
        self.generation += 1
        for s in footprint:
            self._source_mask[s] |= query.bit
        for (stream, attr), factors in by_filter.items():
            gf = self.filters.get((stream, attr))
            if gf is None:
                gf = self.filters[(stream, attr)] = GroupedFilter(attr)
                self._stream_filters[stream].append((attr, gf))
            for factor in factors:
                gf.add(factor, query.qid)
            query.filter_keys.append((stream, attr))
        if cls is None:
            query.schema = self.schemas[streams[0]]
            self._home_mask[streams[0]] |= query.bit
            return query
        self.join_classes[cls.key] = cls
        cls.mask |= query.bit
        for s in footprint:
            self._keep_mask[s] |= query.bit
        query.join_class = cls
        query.schema = cls.schema
        return query

    def _stem(self, stream: str, column: Optional[str]) -> SteM:
        """``stream``'s shared SteM, indexed on ``column`` too."""
        stem = self.stems.get(stream)
        if stem is None:
            stem = self.stems[stream] = SteM(stream)
        if column is not None:
            stem.add_index(column)
        return stem

    def remove_query(self, query: ContinuousQuery) -> None:
        """Unregister a query; shared state used only by it is pruned."""
        if query.qid not in self.queries:
            raise QueryError(f"query {query.name} is not registered")
        del self.queries[query.qid]
        self.generation += 1
        for s in query.footprint:
            self._source_mask[s] &= ~query.bit
        for key in query.filter_keys:
            self.filters[key].remove_query(query.qid)
        cls = query.join_class
        if cls is None:
            self._home_mask[next(iter(query.footprint))] &= ~query.bit
        else:
            for s in query.footprint:
                self._keep_mask[s] &= ~query.bit
            cls.mask &= ~query.bit
            if not cls.mask:
                del self.join_classes[cls.key]
                self._prune_stems()

    def _prune_stems(self) -> None:
        """Drop the SteMs no live join class's footprint holds, and the
        indexes no live class's steps probe."""
        used: Dict[str, Set[Optional[str]]] = {}
        for cls in self.join_classes.values():
            for stream in cls.key[0]:
                used.setdefault(stream, set())
            for steps, _pick in cls.routes.values():
                for step in steps:
                    used[step.stem.source].add(step.column)
        for stream in list(self.stems):
            if stream in used:
                self.stems[stream].keep_indexes(used[stream])
            else:
                del self.stems[stream]

    def _stream_of_column(self, column: str,
                          footprint: FrozenSet[str]) -> str:
        """Resolve which stream a factor's column belongs to."""
        if "." in column:
            stream = column.rsplit(".", 1)[0]
            if stream not in self.schemas or \
                    not self.schemas[stream].has_column(column):
                raise QueryError(f"unknown column {column!r}")
            return stream
        owners = [s for s in footprint
                  if self.schemas[s].has_column(column)]
        if len(owners) != 1:
            raise QueryError(
                f"column {column!r} is ambiguous or unknown over "
                f"{sorted(footprint)}; qualify it")
        return owners[0]

    # -- data path ------------------------------------------------------------
    def push(self, stream: str, *, timestamp: Optional[int] = None,
             **values: Any) -> None:
        """Ingest one tuple (by column name) into ``stream``."""
        schema = self.schemas.get(stream)
        if schema is None:
            raise QueryError(f"unknown stream {stream!r}")
        row = tuple(values[c] for c in schema.column_names())
        self.push_tuple(stream, schema.make(*row, timestamp=timestamp))

    def push_tuple(self, stream: str, t: Tuple) -> None:
        """Route one already-built tuple: a batch of one."""
        self.push_batch(stream, Rows.of((t,)))

    def push_batch(self, stream: str,
                   rows: Union[Rows, Sequence[Tuple]]) -> int:
        """Route a batch of ``stream``'s rows (a
        :class:`~repro.core.tuples.Rows`, or already-built tuples), in
        arrival order, through the super-query; results go to each
        query's callback / results list.

        The filters read the rows' values; a row some join class still
        wants becomes a :class:`Tuple` at its turn and is built into the
        stream's SteM, and any other row is delivered as a :class:`Row`
        (a row that already is a tuple is used itself).

        Returns how many rows were consumed.  That is all of them unless
        a result callback admitted or cancelled a query: the change must
        take effect at the next row, so routing stops after the row
        that caused it and the caller pushes ``rows[consumed:]`` again.
        Counters move for consumed rows only.
        """
        if not isinstance(rows, Rows):
            rows = Rows.of(rows)
        values = rows.values
        n = len(values)
        lineage = self._source_mask.get(stream, 0)
        if not lineage or not n:
            self.tuples_in += n
            return n
        generation = self.generation
        # 1. grouped filters, one probe per shared index per *batch*:
        # lineage is a mask column (by arrival index), ``live`` the
        # arrival indexes still alive for some query.  A filter probes
        # only the rows that still interest one of its queries.
        masks = [lineage] * n
        live: Sequence[int] = range(n)
        stages: List[_Stage] = []
        index_of = rows.schema.index_of
        for attr, gf in self._stream_filters.get(stream, ()):
            registered = gf.registered_mask
            # When every reader of the stream is registered here, every
            # live row is of interest: no need to look.
            probed = live if not lineage & ~registered \
                else [i for i in live if masks[i] & registered]
            if not probed:
                continue
            pos = index_of(attr)
            failed = gf.failing_many(
                [v[pos] for v in values] if len(probed) == n
                else [values[i][pos] for i in probed])
            passed: List[int] = []
            for i, mask in zip(probed, failed):
                mask = masks[i] = masks[i] & ~mask
                if mask:
                    passed.append(i)
            stages.append((attr, gf, probed, passed))
            if len(passed) < len(probed):
                live = passed if len(probed) == len(live) \
                    else [i for i in live if masks[i]]
        work = live
        built = rows.built
        if built and tracing.TRACER.active:
            # Sampled rows report their filter hops when their turn
            # comes, dropped ones included.
            work = sorted({i for i, t in built.items()
                           if t.trace is not None}.union(live))
        # 2. per surviving row, in arrival order: a row alive for a join
        # class becomes a tuple, builds into the stream's home SteM so
        # later arrivals find it, is delivered to selection-only queries
        # and runs each join class it is alive for.  Any other row is
        # delivered as a value Row.
        schema, stamps = rows.schema, rows.stamps
        stem = self.stems.get(stream)
        # A class admitted mid-batch has no bit in this row's lineage.
        joins = [cls for cls in self.join_classes.values()
                 if stream in cls.routes] if stem is not None else ()
        keep = self._keep_mask.get(stream, 0) if stem is not None else 0
        deliver = self._deliver
        # A callback that changes the masks moves the generation, and
        # the batch stops after that row: the home mask holds till then.
        home = self._home_mask.get(stream, 0)
        consumed = n
        try:
            for i in work:
                mask = masks[i]
                t = built.get(i) if built else None
                if t is None and not mask & keep:
                    # No SteM stores the row and no join probes with it:
                    # it is a result and nothing more.
                    if mask & home:
                        deliver(Row(schema, values[i], stamps[i]),
                                mask & home)
                else:
                    if t is None:   # a kept row, built at its turn
                        t = Tuple(schema, values[i], stamps[i], 0, mask)
                    else:
                        if t.trace is not None:
                            self._trace_filters(stream, t.trace, i, stages)
                        if not mask:
                            continue
                        t.queries = mask
                        if mask & keep:
                            t.stamp_arrival()
                    if mask & keep:
                        stem.build(t)
                    if mask & home:
                        deliver(t, mask & home)
                    for cls in joins:
                        if mask & cls.mask:
                            self._join(t, cls, *cls.routes[stream])
                if self.generation != generation:
                    consumed = i + 1
                    break
        finally:
            self.tuples_in += consumed
            for _attr, gf, probed, passed in stages:
                n_probed = bisect_left(probed, consumed)
                n_passed = bisect_left(passed, consumed)
                self.filter_probes += n_probed
                gf.probes -= len(probed) - n_probed
                gf.observe(n_probed, n_passed)
        return consumed

    @staticmethod
    def _trace_filters(stream: str, trace: Any, i: int,
                       stages: Sequence[_Stage]) -> None:
        """The filter hops of the sampled row at arrival index ``i``."""
        for attr, _gf, probed, passed in stages:
            if _holds(probed, i):
                trace.hop("filter", f"gf[{stream}.{attr}]",
                          "pass" if _holds(passed, i) else "drop")

    def _join(self, t: Tuple, cls: JoinClass, steps: List[JoinStep],
              pick: Optional[Callable]) -> None:
        """Run ``t`` through one join class: one probe per step against
        the shared SteMs, for every query of the class at once.  A pair
        lives for the queries both sides and the class are alive for;
        only a prober of a further step is joined into a tuple, and a
        full match is delivered as a :class:`Row` of the class's schema
        (a :class:`Tuple` when a side is sampled, so it carries the
        trace)."""
        mask = cls.mask
        probers = [t]
        for step in steps[:-1]:
            self.stem_probes += len(probers)
            further = []
            for left, stored in step.join(probers, dedupe_by_arrival=True):
                alive = left.queries & stored.queries & mask
                if alive:
                    joined = left.concat(stored)
                    joined.queries = alive
                    further.append(joined)
            if not further:
                return
            probers = further
        self.stem_probes += len(probers)
        schema, deliver = cls.schema, self._deliver
        for left, stored in steps[-1].join(probers, dedupe_by_arrival=True):
            alive = left.queries & stored.queries & mask
            if not alive:
                continue
            values = left.values + stored.values
            if pick is not None:
                values = pick(values)
            match = Row(schema, values, joined_timestamp(left, stored))
            if left.trace is not None or stored.trace is not None:
                match = Tuple(schema, values, match.timestamp, 0, alive)
                match.trace = left.trace or stored.trace
            deliver(match, alive)

    def _deliver(self, row: Row, eligible: int) -> None:
        """Hand ``row`` to each query in ``eligible`` (its lineage masked
        to one footprint's queries) whose residual holds.  The two
        sinks: a query with no callback gets an untraced row appended to
        its list here; a callback or a sampled row goes through
        :meth:`ContinuousQuery.deliver`."""
        queries = self.queries
        plain = row.trace is None
        n = 0
        try:
            while eligible:
                low = eligible & -eligible
                eligible ^= low
                # A callback may have cancelled a later query mid-delivery.
                query = queries.get(low.bit_length() - 1)
                if query is None:
                    continue
                if query.residual is ALWAYS_TRUE or query.residual.matches(row):
                    n += 1
                    if plain and query.callback is None:
                        query.results.append(row)
                    else:
                        query.deliver(row)
        finally:
            self.results_out += n

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "queries": len(self.queries),
            "tuples_in": self.tuples_in,
            "results_out": self.results_out,
            "filter_probes": self.filter_probes,
            "stem_probes": self.stem_probes,
            "grouped_filters": len(self.filters),
            "stems": {s: len(st) for s, st in self.stems.items()},
        }
