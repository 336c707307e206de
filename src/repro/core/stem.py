"""State Modules (SteMs) — Section 2.2 and [RDH02].

A SteM is "a temporary repository of tuples, essentially corresponding to
half of a traditional join operator".  It stores homogeneous tuples (all
spanning the same set of base sources) and supports:

* ``build(t)``   — insert a tuple whose sources match the SteM's home;
* ``probe(p)``   — return concatenated matches for a tuple from *other*
  sources, under the query's evaluable join predicates;
* ``evict(...)`` — optional deletion, used for window expiry.

SteMs can be augmented with hash indexes on join columns; a probe uses an
index when some equality predicate binds the indexed column, else falls
back to a scan.  Duplicate answers in a symmetric join are suppressed
with the classic arrival-order rule: a match is generated only by the
*later* arriving of the two tuples (we use the global tuple id as arrival
order), so the pair is produced exactly once no matter how the eddy
interleaves builds and probes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from typing import (Any, Callable, Deque, Dict, Iterable, List, Sequence, Set, Tuple as TypingTuple)

from repro.core import columnar
from repro.core.tuples import Schema, Tuple, TupleBatch
from repro.errors import PlanError
from repro.monitor.telemetry import get_registry
from repro.query.predicates import ColumnComparison, Predicate

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


class SteM:
    """A temporary repository of tuples for one (composite) source."""

    def __init__(self, source: str, index_columns: Sequence[str] = (),
                 name: str = ""):
        #: home source name: tuples with ``source in t.sources`` build here.
        self.source = source
        self.name = name or f"stem[{source}]"
        self._tuples: Deque[Tuple] = deque()
        self._indexes: Dict[str, Dict[Any, List[Tuple]]] = {
            col: defaultdict(list) for col in index_columns}
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
        index: Dict[Any, List[Tuple]] = defaultdict(list)
        for t in self._tuples:
            index[t[column]].append(t)
        self._indexes[column] = index

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
        for col, index in self._indexes.items():
            index[t[col]].append(t)

    def build_batch(self, batch: TupleBatch) -> None:
        """Vectorized insert: one validation, one deque extend, and one
        pass per index column over the batch's value list (instead of a
        schema lookup per tuple per index)."""
        if self.source not in batch.sources:
            raise PlanError(
                f"{self.name}: build batch spans {set(batch.sources)}, "
                f"not home source {self.source!r}")
        # SteM storage is row-granular by design: stored Tuple objects
        # ARE the lineage (dead flags, max_base dedupe).
        rows = batch.materialize()  # tcqcheck: allow-row-iteration
        self._tuples.extend(rows)
        self.builds += len(rows)
        for tr in batch.traces:
            _hop(tr, self._telemetry_id, "build")
        for col, index in self._indexes.items():
            for value, t in zip(batch.column(col), rows):
                index[value].append(t)

    def evict_before(self, timestamp: int) -> int:
        """Window expiry: drop tuples with timestamp < ``timestamp``.

        Tuples arrive in timestamp order on a single stream, so expiry
        pops from the head.  Returns the eviction count.
        """
        evicted = 0
        while self._tuples and self._tuples[0].timestamp is not None \
                and self._tuples[0].timestamp < timestamp:
            old = self._tuples.popleft()
            evicted += 1
            self.evictions += 1
            for col, index in self._indexes.items():
                bucket = index.get(old[col])
                if bucket:
                    bucket.remove(old)
                    if not bucket:
                        del index[old[col]]
        return evicted

    def evict_where(self, condition: Callable[[Tuple], bool]) -> int:
        """General eviction; O(n).  Used for count-based windows."""
        keep = [t for t in self._tuples if not condition(t)]
        evicted = len(self._tuples) - len(keep)
        if evicted:
            self.evictions += evicted
            self._tuples = deque(keep)
            for col in self._indexes:
                index: Dict[Any, List[Tuple]] = defaultdict(list)
                for t in self._tuples:
                    index[t[col]].append(t)
                self._indexes[col] = index
        return evicted

    # -- probing ----------------------------------------------------------
    def probe(self, prober: Tuple, predicates: Sequence[Predicate],
              dedupe_by_arrival: bool = True) -> List[Tuple]:
        """Return ``prober ⋈ stored`` matches satisfying every predicate.

        ``predicates`` are the query's join factors evaluable over the
        prober's and this SteM's columns.  With ``dedupe_by_arrival``
        (the default), only stored tuples whose latest constituent
        arrived *before* the prober's latest constituent match — the
        symmetric-join suppression rule that guarantees each result is
        generated by the later-arriving side only (multi-path duplicates
        in >=3-way joins are removed at the eddy output by lineage).
        """
        self.probes += 1
        candidates = self._candidates(prober, predicates)
        out: List[Tuple] = []
        for stored in candidates:
            if stored.dead:
                continue
            if dedupe_by_arrival and stored.max_base >= prober.max_base:
                continue
            joined = prober.concat(stored)
            if all(p.matches(joined) for p in predicates):
                out.append(joined)
        self.matches_out += len(out)
        if out:
            self.probe_hits += 1
        tr = prober.trace
        if tr is not None:
            _hop(tr, self._telemetry_id, f"probe:{len(out)}")
        return out

    def probe_batch(self, batch: TupleBatch,
                    predicates: Sequence[Predicate],
                    dedupe_by_arrival: bool = True
                    ) -> "TypingTuple[List[Tuple], List[bool]]":
        """Vectorized probe: the whole batch probes in one call.

        The access path is chosen once for the batch; with an index the
        probe keys are read straight off the batch's column list (one
        pass, no per-tuple dict or schema lookup), and an array-backed
        key column is *factorized* first — each distinct key is hashed
        and looked up exactly once, then fanned back out to its rows.
        Returns the concatenated matches plus a per-prober hit vector
        (so callers can maintain the same selectivity observations as
        the per-tuple path).  Counter semantics are identical to calling
        :meth:`probe` once per row.
        """
        n = len(batch)
        self.probes += n
        self.batch_probes += 1
        # Match composition concatenates prober and stored Tuple
        # objects row by row.
        rows = batch.materialize()  # tcqcheck: allow-row-iteration
        hits = [False] * n
        out: List[Tuple] = []
        plan = self._index_probe_plan(predicates, batch.schema)
        preds = list(predicates)
        if plan is not None:
            index, theirs = plan
            index_get = index.get
            key_idx = batch.schema.index_of(theirs)
            key_arr = batch.store.array(key_idx)
            if key_arr is not None and n > 1:
                # One-pass vectorized key hashing: unique() factorizes
                # the key column in C; the dict is probed per DISTINCT
                # key, not per row.
                distinct, codes = columnar.distinct_codes(key_arr)
                per_key = [index_get(k, ()) for k in distinct]
                buckets: Iterable = [per_key[c] for c in codes]
            else:
                buckets = (index_get(key, ())
                           for key in batch.store.values(key_idx))
        else:
            stored_all = self._tuples
            buckets = (stored_all for _ in range(n))
        for i, (prober, bucket) in enumerate(zip(rows, buckets)):
            if not bucket:
                continue
            prober_max = prober.max_base
            for stored in bucket:
                if stored.dead:
                    continue
                if dedupe_by_arrival and stored.max_base >= prober_max:
                    continue
                joined = prober.concat(stored)
                if all(p.matches(joined) for p in preds):
                    out.append(joined)
                    hits[i] = True
        self.matches_out += len(out)
        self.probe_hits += sum(hits)
        if batch.traces:
            site = self._telemetry_id
            for prober, hit in zip(rows, hits):
                tr = prober.trace
                if tr is not None:
                    _hop(tr, site, "probe:hit" if hit else "probe:0")
        return out, hits

    def _candidates(self, prober: Tuple,
                    predicates: Sequence[Predicate]) -> Iterable[Tuple]:
        """Choose an access path: an index lookup when some equality
        predicate binds an indexed column from the prober, else a scan."""
        plan = self._index_probe_plan(predicates, prober.schema)
        if plan is not None:
            index, theirs = plan
            return index.get(prober[theirs], ())
        return self._tuples

    def _index_probe_plan(self, predicates: Sequence[Predicate],
                          prober_schema: Schema):
        """(index, prober_column) when some equality predicate binds an
        indexed column from the prober's side, else None."""
        for pred in predicates:
            if not isinstance(pred, ColumnComparison) or pred.op != "==":
                continue
            for mine, theirs in ((pred.left, pred.right),
                                 (pred.right, pred.left)):
                if mine in self._indexes and prober_schema.has_column(theirs):
                    return self._indexes[mine], theirs
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
            victim = self._tuples.popleft()
            for col, index in self._indexes.items():
                bucket = index.get(victim[col])
                if bucket:
                    bucket.remove(victim)
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
