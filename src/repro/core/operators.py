"""Pipelined, non-blocking relational operators (Section 2.1).

These are the "Query Processing" modules of Figure 1: joins, selections,
projections, grouping and aggregation, duplicate elimination, sort, and
transitive closure.  All are Fjord modules — they consume and produce
records via the queue API and never block: operators that are blocking by
nature (sort, aggregation over a whole input) buffer internally and flush
either on end-of-stream or at window boundaries, so that continuous
queries still "continuously return incremental results".
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple as TypingTuple

from repro.core.aggregates import IncrementalAggregate, make_aggregate
from repro.core.tuples import Column, Punctuation, Schema, Tuple, TupleBatch
from repro.fjords.module import Module
from repro.query.predicates import Predicate


class Select(Module):
    """Filter: passes tuples matching a predicate.

    Tracks selectivity observations (seen/passed) that routing policies
    and the monitor read.
    """

    def __init__(self, predicate: Predicate, name: str = "",
                 cost: int = 0):
        super().__init__(name=name or f"select[{predicate!r}]")
        self.predicate = predicate
        self.seen = 0
        self.passed = 0
        #: Artificial per-tuple work factor, used by benchmarks to model
        #: expensive predicates (e.g. remote lookups); the loop below
        #: burns deterministic CPU rather than sleeping.
        self.cost = cost
        self._kernel = None

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        self.seen += 1
        if self.cost:
            acc = 0
            for i in range(self.cost):
                acc += i
        if self.predicate.matches(item):
            self.passed += 1
            return (item,)
        return ()

    def process_batch(self, batch: "TupleBatch", port: int) -> Iterable:
        n = len(batch)
        self.seen += n
        if self.cost:
            acc = 0
            for i in range(self.cost * n):
                acc += i
        if self._kernel is None:
            self._kernel = self.predicate.compile()
        passed, _failed = batch.partition(self._kernel(batch))
        self.passed += len(passed)
        return (passed,) if len(passed) else ()

    @property
    def selectivity(self) -> float:
        """Observed pass fraction; 1.0 before any evidence."""
        return self.passed / self.seen if self.seen else 1.0


class Project(Module):
    """Projection with optional renaming: keeps the named columns.

    ``columns`` maps output name -> input column name; a plain sequence
    keeps names unchanged.
    """

    def __init__(self, columns, name: str = ""):
        super().__init__(name=name or "project")
        if isinstance(columns, dict):
            self.mapping: "OrderedDict[str, str]" = OrderedDict(columns)
        else:
            self.mapping = OrderedDict((c, c) for c in columns)
        self._schema_cache: Dict[Schema, Schema] = {}

    def _out_schema(self, in_schema: Schema) -> Schema:
        cached = self._schema_cache.get(in_schema)
        if cached is not None:
            return cached
        cols = [Column(out) for out in self.mapping]
        schema = Schema(cols, sources=in_schema.sources)
        self._schema_cache[in_schema] = schema
        return schema

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        schema = self._out_schema(item.schema)
        values = tuple(item[src] for src in self.mapping.values())
        out = Tuple(schema, values, timestamp=item.timestamp)
        out.queries = item.queries
        return (out,)


class Map(Module):
    """Apply an arbitrary row function: ``fn(tuple) -> values`` under an
    explicit output schema.  Covers computed SELECT expressions."""

    def __init__(self, fn: Callable[[Tuple], TypingTuple[Any, ...]],
                 out_schema: Schema, name: str = ""):
        super().__init__(name=name or "map")
        self.fn = fn
        self.out_schema = out_schema

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        out = Tuple(self.out_schema, tuple(self.fn(item)),
                    timestamp=item.timestamp)
        out.queries = item.queries
        return (out,)


class DupElim(Module):
    """Duplicate elimination on tuple values (streaming distinct)."""

    def __init__(self, name: str = ""):
        super().__init__(name=name or "dupelim")
        self._seen: Set[TypingTuple[Any, ...]] = set()

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        key = item.values
        if key in self._seen:
            return ()
        self._seen.add(key)
        return (item,)

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        # A window boundary resets the distinct set: each window is an
        # independent result set (Section 4.1.1).
        if punctuation.kind == Punctuation.WINDOW_BOUNDARY:
            self._seen.clear()
        self.emit(punctuation)


class Sort(Module):
    """Sort is blocking by nature; within a CQ it sorts each window.

    Buffers tuples and flushes, ordered by ``key`` (a column name or a
    callable), at every window boundary and at end-of-stream.
    """

    def __init__(self, key, descending: bool = False, name: str = ""):
        super().__init__(name=name or "sort")
        if callable(key):
            self._key = key
        else:
            column = key
            self._key = lambda t: t[column]
        self.descending = descending
        self._buffer: List[Tuple] = []

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        self._buffer.append(item)
        return ()

    def _flush(self) -> List[Tuple]:
        self._buffer.sort(key=self._key, reverse=self.descending)
        out, self._buffer = self._buffer, []
        return out

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        if punctuation.kind == Punctuation.WINDOW_BOUNDARY:
            self.emit_all(self._flush())
        self.emit(punctuation)

    def on_end_of_stream(self) -> Iterable[Tuple]:
        return self._flush()


class AggregateSpec:
    """One aggregate column of a GROUP BY: function name, input column
    (None for COUNT(*)), and output column name."""

    __slots__ = ("fn", "column", "alias")

    def __init__(self, fn: str, column: Optional[str], alias: str = ""):
        self.fn = fn.upper()
        self.column = column
        self.alias = alias or (
            f"{self.fn.lower()}_{column}" if column else self.fn.lower())

    def __repr__(self) -> str:
        return f"{self.fn}({self.column or '*'}) AS {self.alias}"


class GroupByAggregate(Module):
    """Grouped aggregation, flushed per window (or at EOS).

    Non-blocking in the Fjord sense: it absorbs tuples incrementally and
    emits one result tuple per group at each window boundary, so infinite
    streams yield an infinite sequence of finite result sets.
    """

    def __init__(self, group_by: Sequence[str], aggregates: Sequence[AggregateSpec],
                 name: str = "", emit_incremental: bool = False):
        super().__init__(name=name or "groupby")
        self.group_by = list(group_by)
        self.specs = list(aggregates)
        #: emit a refreshed result row for a group on every input tuple
        #: (early/partial results in the CONTROL spirit) instead of once
        #: per window.
        self.emit_incremental = emit_incremental
        self._groups: Dict[TypingTuple[Any, ...], List[IncrementalAggregate]] = {}
        self._out_schema: Optional[Schema] = None
        self._sources: frozenset = frozenset()

    def _schema(self) -> Schema:
        if self._out_schema is None:
            cols = [Column(g) for g in self.group_by]
            cols += [Column(s.alias) for s in self.specs]
            self._out_schema = Schema(cols, sources=self._sources or {"agg"})
        return self._out_schema

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        if not self._sources:
            self._sources = item.schema.sources
        key = tuple(item[g] for g in self.group_by)
        aggs = self._groups.get(key)
        if aggs is None:
            aggs = [make_aggregate(s.fn) for s in self.specs]
            self._groups[key] = aggs
        for spec, agg in zip(self.specs, aggs):
            agg.add(1 if spec.column is None else item[spec.column])
        if self.emit_incremental:
            return (self._row(key, aggs, item.timestamp),)
        return ()

    def _row(self, key: TypingTuple[Any, ...],
             aggs: List[IncrementalAggregate],
             timestamp: Optional[int] = None) -> Tuple:
        values = key + tuple(a.result() for a in aggs)
        return Tuple(self._schema(), values, timestamp=timestamp)

    def _flush(self) -> List[Tuple]:
        rows = [self._row(key, aggs) for key, aggs in self._groups.items()]
        self._groups.clear()
        return rows

    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        if punctuation.kind == Punctuation.WINDOW_BOUNDARY and \
                not self.emit_incremental:
            self.emit_all(self._flush())
        self.emit(punctuation)

    def on_end_of_stream(self) -> Iterable[Tuple]:
        if self.emit_incremental:
            return ()
        return self._flush()


class SymmetricHashJoin(Module):
    """The classic two-input pipelined symmetric hash join [WA91].

    Used as the non-adaptive baseline against which the Eddy + two SteMs
    construction of Figure 2 is validated: both must produce identical
    result sets.
    """

    def __init__(self, left_key: str, right_key: str, name: str = "",
                 residual: Optional[Predicate] = None):
        super().__init__(name=name or "shj", arity_in=2, arity_out=1)
        self.left_key = left_key
        self.right_key = right_key
        self.residual = residual
        self._tables: List[Dict[Any, List[Tuple]]] = [defaultdict(list),
                                                      defaultdict(list)]
        self._keys = (left_key, right_key)

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        key_col = self._keys[port]
        other = 1 - port
        key = item[key_col]
        self._tables[port][key].append(item)
        matches = self._tables[other].get(key, ())
        out: List[Tuple] = []
        for m in matches:
            joined = item.concat(m) if port == 0 else m.concat(item)
            if self.residual is None or self.residual.matches(joined):
                out.append(joined)
        return out

    def state_size(self) -> int:
        return sum(len(v) for table in self._tables for v in table.values())


class TransitiveClosure(Module):
    """Computes the transitive closure of an edge stream (a, b).

    A recursive, pipelined operator: each new edge is joined against the
    closure-so-far in both directions, and newly derived pairs are fed
    back internally until a fixpoint — the module listed in Figure 1's
    query-processing row.
    """

    def __init__(self, from_col: str = "src", to_col: str = "dst",
                 name: str = ""):
        super().__init__(name=name or "tclosure")
        self.from_col = from_col
        self.to_col = to_col
        self._forward: Dict[Any, Set[Any]] = defaultdict(set)
        self._backward: Dict[Any, Set[Any]] = defaultdict(set)
        self._pairs: Set[TypingTuple[Any, Any]] = set()
        self._out_schema: Optional[Schema] = None

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        if self._out_schema is None:
            self._out_schema = Schema(
                [Column(self.from_col), Column(self.to_col)],
                sources=item.schema.sources)
        a, b = item[self.from_col], item[self.to_col]
        new_pairs = self._insert(a, b)
        ts = item.timestamp
        return [Tuple(self._out_schema, pair, timestamp=ts)
                for pair in new_pairs]

    def _insert(self, a: Any, b: Any) -> List[TypingTuple[Any, Any]]:
        frontier = [(a, b)]
        derived: List[TypingTuple[Any, Any]] = []
        while frontier:
            x, y = frontier.pop()
            if x == y or (x, y) in self._pairs:
                continue
            self._pairs.add((x, y))
            self._forward[x].add(y)
            self._backward[y].add(x)
            derived.append((x, y))
            # predecessors of x reach y; y's successors are reached by x
            for p in list(self._backward[x]):
                frontier.append((p, y))
            for s in list(self._forward[y]):
                frontier.append((x, s))
        return derived

    def reachable(self, a: Any) -> Set[Any]:
        return set(self._forward.get(a, ()))


class Limit(Module):
    """Passes the first ``n`` tuples then swallows the rest (but still
    forwards punctuation so windows stay aligned)."""

    def __init__(self, n: int, name: str = ""):
        super().__init__(name=name or f"limit[{n}]")
        self.n = n
        self._passed = 0

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        if self._passed >= self.n:
            return ()
        self._passed += 1
        return (item,)


class Union(Module):
    """Merge two inputs into one output stream (bag union)."""

    def __init__(self, name: str = "", arity_in: int = 2):
        super().__init__(name=name or "union", arity_in=arity_in)

    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        return (item,)
