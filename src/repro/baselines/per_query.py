"""The unshared continuous-query baseline: one plan per query.

"Processing each query individually can be slow and wasteful of
resources, as the queries are likely to have some commonality"
(Section 1.1).  This engine does exactly the wasteful thing — every
arriving tuple is evaluated against every query's full predicate,
independently — so experiment E3 can measure what CACQ's sharing buys.

The API mirrors :class:`repro.core.cacq.CACQEngine` so the benchmark
drives both identically.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from repro.core.tuples import Schema, Tuple
from repro.errors import QueryError
from repro.query.predicates import Predicate


class PerQueryQuery:
    """One independently-processed continuous query."""

    def __init__(self, qid: int, streams: frozenset, predicate: Predicate,
                 name: str = ""):
        self.qid = qid
        self.streams = streams
        self.predicate = predicate
        self.name = name or f"pq{qid}"
        self.results: List[Tuple] = []
        #: per-query symmetric-join state (each query pays for its own,
        #: unlike CACQ's shared SteMs).
        self.join_state: Dict[str, List[Tuple]] = {s: [] for s in streams}


class PerQueryEngine:
    """Evaluates every query separately on every tuple."""

    def __init__(self) -> None:
        self.schemas: Dict[str, Schema] = {}
        self.queries: Dict[int, PerQueryQuery] = {}
        self._next_qid = itertools.count()
        self.tuples_in = 0
        self.predicate_evaluations = 0
        #: scans of a query's partner join state, one per join query per
        #: arriving row (CACQ's counterpart is ``SteM.probes``).
        self.join_scans = 0

    def register_stream(self, schema: Schema) -> None:
        if not schema.name:
            raise QueryError("stream schema needs a name")
        self.schemas[schema.name] = schema

    def add_query(self, streams: Sequence[str], predicate: Predicate,
                  name: str = "") -> PerQueryQuery:
        for s in streams:
            if s not in self.schemas:
                raise QueryError(f"unknown stream {s!r}")
        query = PerQueryQuery(next(self._next_qid), frozenset(streams),
                              predicate, name=name)
        self.queries[query.qid] = query
        return query

    def remove_query(self, query: PerQueryQuery) -> None:
        self.queries.pop(query.qid, None)

    def push(self, stream: str, *, timestamp: Optional[int] = None,
             **values: Any) -> int:
        schema = self.schemas.get(stream)
        if schema is None:
            raise QueryError(f"unknown stream {stream!r}")
        row = tuple(values[c] for c in schema.column_names())
        return self.push_tuple(stream, schema.make(*row, timestamp=timestamp))

    def push_tuple(self, stream: str, t: Tuple) -> int:
        """Route the tuple through every query; returns deliveries."""
        self.tuples_in += 1
        delivered = 0
        for query in self.queries.values():
            if stream not in query.streams:
                continue
            if len(query.streams) == 1:
                self.predicate_evaluations += 1
                if query.predicate.matches(t):
                    query.results.append(t)
                    delivered += 1
                continue
            delivered += self._join_push(query, stream, t)
        return delivered

    def _join_push(self, query: PerQueryQuery, stream: str,
                   t: Tuple) -> int:
        """Per-query symmetric join: store, then pair with every stored
        tuple of the other streams and test the full predicate."""
        query.join_state[stream].append(t)
        others = [s for s in query.streams if s != stream]
        if len(others) != 1:
            raise QueryError(
                "the per-query baseline supports 1- and 2-stream queries")
        delivered = 0
        self.join_scans += 1
        for other_tuple in query.join_state[others[0]]:
            joined = t.concat(other_tuple) if t.tid > other_tuple.tid \
                else other_tuple.concat(t)
            self.predicate_evaluations += 1
            if query.predicate.matches(joined):
                query.results.append(joined)
                delivered += 1
        return delivered

    def stats(self) -> Dict[str, Any]:
        return {
            "queries": len(self.queries),
            "tuples_in": self.tuples_in,
            "predicate_evaluations": self.predicate_evaluations,
            "join_scans": self.join_scans,
        }
