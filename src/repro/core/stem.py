"""State Modules (SteMs) — Section 2.2 and [RDH02].

A SteM is "a temporary repository of tuples, essentially corresponding to
half of a traditional join operator".  It stores homogeneous tuples (all
spanning the same set of base sources) and supports:

* ``build(t)``   — insert a tuple whose sources match the SteM's home;
* ``matching(probers, ...)`` — the stored rows that join each prober;
* ``probe(p)``   — return concatenated matches for a tuple from *other*
  sources, under the query's evaluable join predicates (the matching
  rows, each joined to the prober);
* ``evict_before(ts)`` — window expiry.

:func:`join_steps` binds a join over several SteMs to positions, one
:class:`JoinStep` per binding after the first, and :func:`join_route`
orders it from the binding a row arrives on: the join body of both
windowed plans and CACQ's join classes.

SteMs can be augmented with hash indexes on join columns; a probe uses an
index when some equality predicate binds the indexed column, else falls
back to a scan.  ``None`` and NaN equal nothing, so they are never
indexed: no probe finds their bucket, and the bucket a probe does find
needs no re-check of the equality that picked it.

Duplicate answers in a symmetric join are suppressed with the classic
arrival-order rule: a match is generated only by the *later* arriving of
the two tuples (we use the global tuple id as arrival order), so the
pair is produced exactly once no matter how the eddy interleaves builds
and probes.  A windowed plan needs no such check: its rows probe as
they are built, so the SteMs they meet hold only earlier rows.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from functools import reduce
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple as TypingTuple)

from repro.core.tuples import Row, Schema, Tuple, TupleBatch
from repro.errors import PlanError
from repro.monitor.telemetry import get_registry
from repro.query.predicates import (And, Check, ColumnComparison, Predicate,
                                    join_order)

_STEM_IDS = itertools.count()


def _hop(trace: Any, site: str, detail: str) -> None:
    """A SteM waypoint on a sampled tuple's trace: recorded while the
    trace is open, and once.  A row lives on in its stream's store and
    is built into (or probes) a window SteM again for every later window
    that contains it; those repeats are not new steps of the trip the
    trace measures, and must not make it grow with the window count."""
    if trace.finished_at is None and not any(
            h.site == site and h.detail == detail for h in trace.hops):
        trace.hop("stem", site, detail)


def _keyed(value: Any) -> bool:
    """Whether ``value`` goes into an index: not ``None``, not NaN."""
    return value is not None and value == value


class SteM:
    """A temporary repository of tuples for one (composite) source."""

    def __init__(self, source: str, index_columns: Sequence[str] = (),
                 name: str = ""):
        #: home source name: tuples with ``source in t.sources`` build here.
        self.source = source
        self.name = name or f"stem[{source}]"
        self._tuples: Deque[Tuple] = deque()
        #: column -> key -> bucket.  A bucket is in build order, like
        #: ``_tuples``, so the row expiry evicts is always its head.
        self._indexes: Dict[str, Dict[Any, Deque[Tuple]]] = {
            col: defaultdict(deque) for col in index_columns}
        #: (position, index) per index for rows of ``_keyed_schema``:
        #: key columns are found by name once per schema, not per row.
        self._key_positions: List[TypingTuple[int, Dict[Any, Deque[Tuple]]]] = []
        self._keyed_schema: Optional[Schema] = None
        self.builds = 0
        self.probes = 0
        self.probe_hits = 0
        self.matches_out = 0
        self.evictions = 0
        self.batch_probes = 0
        # Collector-based telemetry: build/probe stay pure int updates.
        self._telemetry = get_registry()
        self._telemetry_id = f"{self.name}#{next(_STEM_IDS)}"
        self._telemetry.register_collector(self._publish_telemetry)

    # -- maintenance -------------------------------------------------------
    def add_index(self, column: str) -> None:
        """Create a hash index on ``column``, indexing existing content."""
        if column in self._indexes:
            return
        index: Dict[Any, Deque[Tuple]] = defaultdict(deque)
        for t in self._tuples:
            key = t[column]
            if _keyed(key):
                index[key].append(t)
        self._indexes[column] = index
        self._keyed_schema = None

    def keep_indexes(self, columns: Set[Optional[str]]) -> None:
        """Drop every hash index on a column not in ``columns``."""
        for column in [c for c in self._indexes if c not in columns]:
            del self._indexes[column]
            self._keyed_schema = None

    def _keys_of(self, schema: Schema) -> List[TypingTuple[int, Dict[Any, Deque[Tuple]]]]:
        if schema is not self._keyed_schema:
            self._key_positions = [(schema.index_of(col), index)
                                   for col, index in self._indexes.items()]
            self._keyed_schema = schema
        return self._key_positions

    def build(self, t: Tuple) -> None:
        """Insert a build tuple.  Raises if the tuple does not belong to
        this SteM's home source."""
        if self.source not in t.sources:
            raise PlanError(
                f"{self.name}: build tuple spans {set(t.sources)}, "
                f"not home source {self.source!r}")
        self._tuples.append(t)
        self.builds += 1
        tr = t.trace
        if tr is not None:
            _hop(tr, self._telemetry_id, "build")
        if self._indexes:
            values = t.values
            keys = self._key_positions if t.schema is self._keyed_schema \
                else self._keys_of(t.schema)
            for pos, index in keys:
                key = values[pos]
                if key is not None and key == key:      # _keyed
                    index[key].append(t)

    def build_batch(self, batch: TupleBatch) -> None:
        """:meth:`build` for each row of the batch, in order."""
        # SteM storage is row-granular by design: stored Tuple objects
        # ARE the lineage (dead flags, max_base dedupe).
        for t in batch.materialize():  # tcq: allow[TCQ501] SteM stores rows
            self.build(t)

    def evict_before(self, timestamp: Optional[int]) -> int:
        """Window expiry: drop tuples with timestamp < ``timestamp`` —
        every tuple when ``timestamp`` is None (a window starting over).

        Tuples arrive in timestamp order on a single stream, so expiry
        pops from the head.  Returns the eviction count.
        """
        tuples = self._tuples
        if timestamp is None:
            evicted = len(tuples)
        else:
            evicted = 0
            for t in tuples:
                if t.timestamp is None or t.timestamp >= timestamp:
                    break
                evicted += 1
        self._pop_oldest(evicted)
        self.evictions += evicted
        return evicted

    def _pop_oldest(self, n: int) -> None:
        """Remove the ``n`` oldest stored rows.  Each is the head of
        ``_tuples`` and of its bucket in every index, since both are in
        build order."""
        tuples = self._tuples
        if n == len(tuples):
            tuples.clear()
            for index in self._indexes.values():
                index.clear()
            return
        if not self._indexes:
            for _ in range(n):
                tuples.popleft()
            return
        for _ in range(n):
            head = tuples.popleft()
            values = head.values
            for pos, index in self._keys_of(head.schema):
                key = values[pos]
                if key is not None and key == key:      # _keyed
                    bucket = index[key]
                    bucket.popleft()
                    if not bucket:
                        del index[key]

    # -- probing ----------------------------------------------------------
    def matching(self, probers: Sequence[Tuple], column: Optional[str] = None,
                 keys: Sequence[Any] = (),
                 accept: Optional[Callable[[Tuple, Tuple], bool]] = None,
                 dedupe_by_arrival: bool = False
                 ) -> List[TypingTuple[Tuple, Tuple]]:
        """The stored rows that join each prober, as ``(prober, stored)``
        pairs: probers in order, each one's rows in arrival order.

        With ``column`` (an indexed column) prober ``i`` meets only the
        bucket of ``keys[i]``, so the equality that picked the bucket
        holds and is not checked again; without, it meets every stored
        row.  Dead rows never join; under ``dedupe_by_arrival`` only rows
        that arrived before the prober do (see :meth:`probe`); and
        ``accept(prober, stored)``, when given, decides the rest.  Each
        prober counts as one probe.
        """
        index = self._indexes[column] if column is not None else None
        if index is None:
            keys = itertools.repeat(None)
        site = self._telemetry_id
        out: List[TypingTuple[Tuple, Tuple]] = []
        hits = 0
        for prober, key in zip(probers, keys):
            candidates = self._tuples if index is None \
                else index.get(key, ())
            newest = prober.max_base if dedupe_by_arrival else None
            found = len(out)
            for stored in candidates:
                if stored.dead or (newest is not None
                                   and stored.max_base >= newest):
                    continue
                if accept is None or accept(prober, stored):
                    out.append((prober, stored))
            found = len(out) - found
            if found:
                hits += 1
            tr = prober.trace
            if tr is not None:
                _hop(tr, site, f"probe:{found}")
        self.probes += len(probers)
        self.probe_hits += hits
        self.matches_out += len(out)
        return out

    def probe(self, prober: Tuple, predicates: Sequence[Predicate],
              dedupe_by_arrival: bool = True) -> List[Tuple]:
        """Return ``prober ⋈ stored`` matches satisfying every predicate:
        :meth:`matching`'s rows, each joined to the prober.

        ``predicates`` are the query's join factors evaluable over the
        prober's and this SteM's columns.  With ``dedupe_by_arrival``
        (the default), only stored tuples whose latest constituent
        arrived *before* the prober's latest constituent match — the
        symmetric-join suppression rule that guarantees each result is
        generated by the later-arriving side only (multi-path duplicates
        in >=3-way joins are removed at the eddy output by lineage).
        """
        return [p.concat(stored) for p, stored in self._joining(
            (prober,), prober.schema, predicates, dedupe_by_arrival)]

    def probe_batch(self, batch: TupleBatch,
                    predicates: Sequence[Predicate],
                    dedupe_by_arrival: bool = True
                    ) -> "TypingTuple[List[Tuple], List[bool]]":
        """:meth:`probe` for each row of the batch, in order: the
        matches, and per prober whether it found any (so callers keep
        the same selectivity observations as the per-tuple path)."""
        self.batch_probes += 1
        # Match composition concatenates prober and stored Tuple
        # objects row by row.
        rows = batch.materialize()  # tcq: allow[TCQ501] joins build rows
        pairs = self._joining(rows, batch.schema, predicates,
                              dedupe_by_arrival)
        hit = {id(p) for p, _stored in pairs}
        return ([p.concat(stored) for p, stored in pairs],
                [id(t) in hit for t in rows])

    def _joining(self, probers: Sequence[Tuple], schema: Schema,
                 predicates: Sequence[Predicate], dedupe_by_arrival: bool
                 ) -> List[TypingTuple[Tuple, Tuple]]:
        """:meth:`matching` for probers of ``schema`` under join
        ``predicates``: an equality on an indexed column picks the
        bucket, and the rest are checked on each candidate pair."""
        rest = list(predicates)
        column, keys = None, ()
        plan = self._index_probe_plan(rest, schema)
        if plan is not None:
            i, column, theirs = plan
            pos = schema.index_of(theirs)
            keys = [p.values[pos] for p in probers]
            del rest[i]
        accept = None
        if rest:
            def accept(p: Tuple, stored: Tuple) -> bool:
                # The pair under the joined schema, as a Row: only a
                # kept pair is joined (with lineage) for real.
                pair = Row(p.schema.join(stored.schema),
                           p.values + stored.values)
                return all(pred.matches(pair) for pred in rest)
        return self.matching(probers, column, keys, accept,
                             dedupe_by_arrival)

    def _index_probe_plan(self, predicates: Sequence[Predicate],
                          prober_schema: Schema
                          ) -> Optional[TypingTuple[int, str, str]]:
        """The access path: (position of the predicate, indexed column,
        prober column) when some equality predicate binds an indexed
        column from the prober's side, else None (a scan)."""
        for i, pred in enumerate(predicates):
            if not isinstance(pred, ColumnComparison) or pred.op != "==":
                continue
            for mine, theirs in ((pred.left, pred.right),
                                 (pred.right, pred.left)):
                if mine in self._indexes and prober_schema.has_column(theirs):
                    return i, mine, theirs
        return None

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        stem = self._telemetry_id
        reg.counter("tcq_stem_builds_total", "Tuples inserted into SteMs",
                    ("stem",), collected=True).labels(stem).set_total(
            self.builds)
        reg.counter("tcq_stem_probes_total", "Probe operations against SteMs",
                    ("stem",), collected=True).labels(stem).set_total(
            self.probes)
        reg.counter("tcq_stem_matches_total", "Join matches produced (hits)",
                    ("stem",), collected=True).labels(stem).set_total(
            self.matches_out)
        reg.counter("tcq_stem_probe_hits_total",
                    "Probes that found at least one match", ("stem",),
                    collected=True).labels(stem).set_total(self.probe_hits)
        reg.counter("tcq_stem_evictions_total",
                    "Tuples expired out of SteMs", ("stem",),
                    collected=True).labels(stem).set_total(self.evictions)
        reg.counter("tcq_stem_batch_probes_total",
                    "Vectorized probe_batch calls", ("stem",),
                    collected=True).labels(stem).set_total(self.batch_probes)
        reg.gauge("tcq_stem_size", "Tuples currently held", ("stem",),
                  collected=True).labels(stem).set(len(self._tuples))

    # -- introspection ------------------------------------------------------
    def observed_hit_rate(self) -> float:
        """Fraction of probes that found at least one match — the
        probe-side selectivity EXPLAIN reports for shared (CACQ) plans,
        where no EddyOperator wraps the SteM."""
        return self.probe_hits / self.probes if self.probes else 0.0

    def __len__(self) -> int:
        return len(self._tuples)

    def contents(self) -> List[Tuple]:
        return list(self._tuples)

    def state_size(self) -> int:
        return len(self._tuples)

    def __repr__(self) -> str:
        return f"SteM({self.source}, n={len(self._tuples)})"


class JoinStep:
    """One binding of a join after the first, bound to positions: its
    SteM, the column that SteM is indexed on (the binding's side of the
    step's first equijoin factor; None: scan), where the factor's other
    side sits in a prober's values, and ``accept``: every other factor
    the step can evaluate, checked on the pair's values."""

    __slots__ = ("stem", "column", "key", "accept")

    def __init__(self, stem: SteM, column: Optional[str], key: int,
                 check: Optional[Check]):
        self.stem = stem
        self.column = column
        self.key = key
        self.accept = None if check is None else \
            (lambda prober, stored: check(prober.values + stored.values))

    def join(self, probers: List[Tuple], dedupe_by_arrival: bool = False
             ) -> List[TypingTuple[Tuple, Tuple]]:
        """The ``(prober, stored)`` pairs the step keeps: one probe of
        its SteM per prober (see :meth:`SteM.matching`)."""
        key = self.key
        keys = [p.values[key] for p in probers] if self.column else ()
        return self.stem.matching(probers, self.column, keys, self.accept,
                                  dedupe_by_arrival)


def join_steps(schemas: Sequence[Schema], factors: Sequence[Predicate],
               stem_of: Callable[[str, Optional[str]], SteM]
               ) -> List[JoinStep]:
    """The join of ``schemas`` (one per binding, each named for it) in
    that order, lowered to one :class:`JoinStep` per binding after the
    first; a prober of a step holds the values of every binding before
    it, in order.

    Each factor over two or more bindings runs at the step where its
    last binding joins.  The step's first equijoin factor picks the
    bucket of the binding's SteM, ``stem_of(binding, column)`` (column
    None: a scan), and the rest are one check bound over the pair's
    values."""
    where = {schema.name: i for i, schema in enumerate(schemas)}
    at_step: List[List[Predicate]] = [[] for _ in schemas]
    for factor in factors:
        sources = factor.sources()
        if len(sources) > 1:
            at_step[max(map(where.__getitem__, sources))].append(factor)
    steps: List[JoinStep] = []
    joined = schemas[0]
    for schema, rest in zip(schemas[1:], at_step[1:]):
        prior, joined = joined, joined.join(schema)
        index = next((f for f in rest if isinstance(f, ColumnComparison)
                      and f.is_equijoin()), None)
        column, key = None, 0
        if index is not None:
            rest = [f for f in rest if f is not index]
            column = index.column_of(schema.name)
            key = prior.index_of(index.left if column == index.right
                                 else index.right)
        steps.append(JoinStep(stem_of(schema.name, column), column, key,
                              And(*rest).bind(joined.locate) if rest
                              else None))
    return steps


def join_route(start: str, schemas: Sequence[Schema],
               factors: Sequence[Predicate],
               stem_of: Callable[[str, Optional[str]], SteM]
               ) -> TypingTuple[List[JoinStep], Schema]:
    """The join a row arriving on ``start`` runs: the bindings in
    :func:`~repro.query.predicates.join_order` from ``start``, then any
    it leaves out (no equijoin path: scanned) in ``schemas``' order,
    lowered by :func:`join_steps`; and the schema of its matches, those
    bindings joined in that order."""
    by_name = {schema.name: schema for schema in schemas}
    order = join_order(start, factors)
    order += [name for name in by_name if name not in order]
    route = [by_name[name] for name in order]
    return join_steps(route, factors, stem_of), reduce(Schema.join, route)


class CacheSteM(SteM):
    """A SteM used as a cache of expensive lookups (Section 2.2's index
    join: "a SteM on T should also be built, as a cache of previous
    expensive T lookups, as in [HN96]").

    Bounded in size with LRU eviction on build; ``lookup_or_none``
    reports hit/miss so the hybrid-join benchmark can count saved remote
    accesses.
    """

    def __init__(self, source: str, capacity: int,
                 index_columns: Sequence[str] = (), name: str = ""):
        super().__init__(source, index_columns=index_columns,
                         name=name or f"cache-stem[{source}]")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def build(self, t: Tuple) -> None:
        if self.capacity and len(self._tuples) >= self.capacity:
            self._pop_oldest(1)
        super().build(t)

    def lookup(self, column: str, value: Any) -> List[Tuple]:
        """Point lookup through the index (cache semantics): returns the
        cached tuples with ``column == value`` and counts hit/miss."""
        if column in self._indexes:
            found = list(self._indexes[column].get(value, ()))
        else:
            found = [t for t in self._tuples if t[column] == value]
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found


class RendezvousBuffer(SteM):
    """A SteM on the outer of an asynchronous index join (Section 2.2:
    "requiring a SteM on S (a rendezvous buffer) to hold S tuples pending
    matches from the index").

    Tracks which held tuples still await responses; ``settle`` removes a
    tuple once its lookup completed and all matches were emitted.
    """

    def __init__(self, source: str, index_columns: Sequence[str] = (),
                 name: str = ""):
        super().__init__(source, index_columns=index_columns,
                         name=name or f"rendezvous[{source}]")
        self._pending: Set[int] = set()

    def hold(self, t: Tuple) -> None:
        self.build(t)
        self._pending.add(t.tid)

    def settle(self, t: Tuple) -> None:
        self._pending.discard(t.tid)

    def pending_count(self) -> int:
        return len(self._pending)
