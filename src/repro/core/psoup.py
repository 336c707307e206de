"""PSoup: streaming queries over streaming data (Section 3.2, [CF02]).

PSoup treats **data and queries symmetrically**: query processing is a
join between a stream of data tuples and a stream of query
specifications.

* New query -> inserted into the **Query SteM**, then *probes the Data
  SteM* (applies the new query to previously arrived data — historical
  queries).
* New data  -> inserted into the **Data SteM**, then *probes the Query
  SteM* (applies new data to standing queries — continuous queries).

Matches land in the **Results Structure**, continuously materialised.
When a (possibly long-disconnected) client *invokes* a query, its
time-window is imposed on the materialised results — no recomputation —
which is what makes intermittent retrieval cheap (experiment E5).

:class:`OnDemandPSoup` is the ablation baseline: identical API but no
materialisation; every invoke rescans the data window.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set

from repro.core.grouped_filter import GroupedFilter, decode_mask
from repro.core.tuples import Schema, Tuple
from repro.errors import QueryError
from repro.query.predicates import ALWAYS_TRUE, Predicate, decompose


class PSoupQuery:
    """A registered SELECT-FROM-WHERE specification plus its standing
    time window (results are retrieved over ``[now - window + 1, now]``)."""

    __slots__ = ("qid", "predicate", "window", "name", "residual",
                 "single_factors", "registered_at")

    def __init__(self, qid: int, predicate: Predicate, window: int,
                 name: str = "", registered_at: int = 0):
        if window < 1:
            raise QueryError("query window must be >= 1 time unit")
        decomposed = decompose(predicate)
        if decomposed.equijoins:
            raise QueryError(
                "this PSoup reproduction covers single-stream queries; "
                "join factors are not supported in the Query SteM")
        self.qid = qid
        self.predicate = predicate
        self.window = window
        self.name = name or f"psoup-q{qid}"
        self.single_factors = decomposed.single_variable
        self.residual = decomposed.residual_predicate()
        self.registered_at = registered_at

    def matches(self, t: Tuple) -> bool:
        return self.predicate.matches(t)

    def __repr__(self) -> str:
        return f"PSoupQuery({self.name}, w={self.window}, {self.predicate!r})"


class QuerySteM:
    """The index of standing queries — "a generalization of the notion
    of a grouped filter".

    Single-variable factors are indexed in per-attribute grouped
    filters; residual predicates are evaluated per surviving query.
    ``probe(t)`` returns the set of query ids satisfied by tuple ``t``.
    """

    def __init__(self) -> None:
        self._queries: Dict[int, PSoupQuery] = {}
        self._filters: Dict[str, GroupedFilter] = {}
        #: bitmaps over query ids: every standing query, and those with
        #: residual (non-indexable) predicate parts.
        self._all_mask = 0
        self._residual_mask = 0
        self.probes = 0

    def insert(self, query: PSoupQuery) -> None:
        self._queries[query.qid] = query
        self._all_mask |= 1 << query.qid
        for factor in query.single_factors:
            gf = self._filters.get(factor.column)
            if gf is None:
                gf = GroupedFilter(factor.column)
                self._filters[factor.column] = gf
            gf.add(factor, query.qid)
        if query.residual is not ALWAYS_TRUE:
            self._residual_mask |= 1 << query.qid

    def remove(self, qid: int) -> None:
        query = self._queries.pop(qid, None)
        if query is None:
            return
        for factor in query.single_factors:
            self._filters[factor.column].remove_query(qid)
        self._all_mask &= ~(1 << qid)
        self._residual_mask &= ~(1 << qid)

    def probe(self, t: Tuple) -> Set[int]:
        """Which standing queries does this data tuple satisfy?  Lineage
        is a bitmap all the way through (the grouped filters' native
        currency) and becomes a set of ids only on return."""
        self.probes += 1
        alive = self._all_mask
        for attr, gf in self._filters.items():
            registered = gf.registered_mask & alive
            if not registered:
                continue
            if not t.schema.has_column(attr):
                alive &= ~registered
            else:
                alive &= ~gf.failing(t[attr])
            if not alive:
                return set()
        residual = alive & self._residual_mask
        while residual:
            low = residual & -residual
            residual ^= low
            if not self._queries[low.bit_length() - 1].residual.matches(t):
                alive ^= low
        return decode_mask(alive)

    def get(self, qid: int) -> PSoupQuery:
        try:
            return self._queries[qid]
        except KeyError:
            raise QueryError(f"unknown PSoup query id {qid}") from None

    def __len__(self) -> int:
        return len(self._queries)

    def max_window(self) -> int:
        return max((q.window for q in self._queries.values()), default=0)


class DataSteM:
    """The repository of previously-arrived data tuples, timestamp
    ordered, with head eviction once no query window can reach back."""

    def __init__(self) -> None:
        self._tuples: Deque[Tuple] = deque()
        self.inserted = 0
        self.evicted = 0

    def insert(self, t: Tuple) -> None:
        if t.timestamp is None:
            raise QueryError("PSoup data tuples need timestamps")
        if self._tuples and t.timestamp < self._tuples[-1].timestamp:
            raise QueryError("PSoup data must arrive in timestamp order")
        self._tuples.append(t)
        self.inserted += 1

    def probe(self, query: PSoupQuery) -> List[Tuple]:
        """Apply a *new* query to old data (historical execution)."""
        return [t for t in self._tuples if query.matches(t)]

    def scan(self, left: int, right: int) -> List[Tuple]:
        return [t for t in self._tuples if left <= t.timestamp <= right]

    def evict_before(self, timestamp: int) -> int:
        n = 0
        while self._tuples and self._tuples[0].timestamp < timestamp:
            self._tuples.popleft()
            n += 1
        self.evicted += n
        return n

    def __len__(self) -> int:
        return len(self._tuples)


class ResultsStructure:
    """Continuously materialised per-query results.

    For each query we keep the matching tuples in timestamp order;
    ``retrieve`` imposes the window, and ``prune`` drops entries that
    have aged out of every possible future window.
    """

    def __init__(self) -> None:
        self._results: Dict[int, Deque[Tuple]] = {}
        self.appends = 0

    def register(self, qid: int, initial: Iterable[Tuple] = ()) -> None:
        bucket: Deque[Tuple] = deque(initial)
        self.appends += len(bucket)
        self._results[qid] = bucket

    def unregister(self, qid: int) -> None:
        self._results.pop(qid, None)

    def append(self, qid: int, t: Tuple) -> None:
        self._results[qid].append(t)
        self.appends += 1

    def retrieve(self, qid: int, left: int, right: int) -> List[Tuple]:
        bucket = self._results.get(qid)
        if bucket is None:
            raise QueryError(f"no results registered for query {qid}")
        return [t for t in bucket if left <= t.timestamp <= right]

    def prune(self, qid: int, before: int) -> int:
        bucket = self._results.get(qid)
        if bucket is None:
            return 0
        n = 0
        while bucket and bucket[0].timestamp < before:
            bucket.popleft()
            n += 1
        return n

    def size(self, qid: int) -> int:
        return len(self._results.get(qid, ()))

    def total_size(self) -> int:
        return sum(len(b) for b in self._results.values())


class PSoup:
    """The engine of Figure 3: the symmetric data/query join.

    ``separate computation from delivery``: results are computed as data
    and queries arrive; :meth:`invoke` merely windows the materialised
    answer — supporting disconnected clients.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self.query_stem = QuerySteM()
        self.data_stem = DataSteM()
        self.results = ResultsStructure()
        self._next_qid = itertools.count()
        self._clock = 0          # latest timestamp seen

    # -- the two symmetric arrival paths ---------------------------------
    def register_query(self, predicate: Predicate, window: int,
                       name: str = "") -> PSoupQuery:
        """New query: build into the Query SteM, then probe the Data
        SteM so the answer covers *previously arrived* data."""
        query = PSoupQuery(next(self._next_qid), predicate, window,
                           name=name, registered_at=self._clock)
        self.query_stem.insert(query)
        historical = self.data_stem.probe(query)
        self.results.register(query.qid, historical)
        return query

    def push(self, *values: Any, timestamp: Optional[int] = None) -> Set[int]:
        """New data: build into the Data SteM, then probe the Query SteM.

        Returns the ids of queries the tuple satisfied.
        """
        ts = timestamp if timestamp is not None else self._clock + 1
        t = self.schema.make(*values, timestamp=ts)
        return self.push_tuple(t)

    def push_tuple(self, t: Tuple) -> Set[int]:
        self.data_stem.insert(t)
        self._clock = max(self._clock, t.timestamp)
        matched = self.query_stem.probe(t)
        for qid in matched:
            self.results.append(qid, t)
        return matched

    # -- delivery ------------------------------------------------------------
    def invoke(self, query: PSoupQuery,
               now: Optional[int] = None) -> List[Tuple]:
        """Impose the query's window on the materialised results —
        the cheap retrieval path for intermittently connected clients."""
        at = self._clock if now is None else now
        return self.results.retrieve(query.qid, at - query.window + 1, at)

    def remove_query(self, query: PSoupQuery) -> None:
        self.query_stem.remove(query.qid)
        self.results.unregister(query.qid)

    def vacuum(self) -> Dict[str, int]:
        """Reclaim data and results that no window can reach any more."""
        horizon = self._clock - self.query_stem.max_window() + 1
        dropped_data = self.data_stem.evict_before(horizon)
        dropped_results = 0
        for qid in list(self.results._results):
            query = self.query_stem.get(qid)
            dropped_results += self.results.prune(
                qid, self._clock - query.window + 1)
        return {"data": dropped_data, "results": dropped_results}

    @property
    def clock(self) -> int:
        return self._clock


class OnDemandPSoup:
    """The no-materialisation baseline: push only stores; every invoke
    rescans the window and re-evaluates the predicate (what a system
    without the Results Structure must do)."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.data_stem = DataSteM()
        self._queries: Dict[int, PSoupQuery] = {}
        self._next_qid = itertools.count()
        self._clock = 0
        self.scan_cost = 0       # tuples examined across all invokes

    def register_query(self, predicate: Predicate, window: int,
                       name: str = "") -> PSoupQuery:
        query = PSoupQuery(next(self._next_qid), predicate, window,
                           name=name, registered_at=self._clock)
        self._queries[query.qid] = query
        return query

    def push(self, *values: Any, timestamp: Optional[int] = None) -> None:
        ts = timestamp if timestamp is not None else self._clock + 1
        t = self.schema.make(*values, timestamp=ts)
        self.data_stem.insert(t)
        self._clock = max(self._clock, t.timestamp)

    def invoke(self, query: PSoupQuery,
               now: Optional[int] = None) -> List[Tuple]:
        at = self._clock if now is None else now
        window = self.data_stem.scan(at - query.window + 1, at)
        self.scan_cost += len(window)
        return [t for t in window if query.matches(t)]

    @property
    def clock(self) -> int:
        return self._clock
