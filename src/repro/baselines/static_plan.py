"""Static query plans — the iterator-model baseline (Figure 4, E1).

A conventional optimizer freezes an operator order at plan time using
whatever statistics it has, then never reconsiders.  This module
implements exactly that:

* pull-based iterators (scan, filter, projection, hash join) in the
  PostgreSQL/Volcano style;
* :class:`StaticFilterPlan` — a filter pipeline in a fixed order chosen
  from *estimated* selectivities, applied to a stream tuple-at-a-time.
  This is what the eddy is benchmarked against: when true selectivities
  drift after planning, the static order keeps paying the stale cost,
  while the eddy re-routes (experiment E1).

Work accounting: each predicate evaluation counts one unit, so the
comparison with the eddy is apples-to-apples and deterministic,
independent of interpreter noise; wall-clock benchmarks are layered on
top by pytest-benchmark.
"""

from __future__ import annotations

from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as TypingTuple)

from repro.core.tuples import Schema, Tuple
from repro.errors import PlanError
from repro.query.predicates import Predicate


class PlanIterator:
    """Volcano-style iterator: open/next/close collapsed into Python
    iteration."""

    def __iter__(self) -> Iterator[Tuple]:
        raise NotImplementedError


class ScanIterator(PlanIterator):
    """Full scan over a materialised table or arrived stream prefix."""

    def __init__(self, tuples: Sequence[Tuple]):
        self.tuples = tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self.tuples)


class FilterIterator(PlanIterator):
    def __init__(self, child: PlanIterator, predicate: Predicate):
        self.child = child
        self.predicate = predicate
        self.evaluations = 0

    def __iter__(self) -> Iterator[Tuple]:
        for t in self.child:
            self.evaluations += 1
            if self.predicate.matches(t):
                yield t


class ProjectIterator(PlanIterator):
    def __init__(self, child: PlanIterator, columns: Sequence[str]):
        self.child = child
        self.columns = list(columns)
        self._schema: Optional[Schema] = None

    def __iter__(self) -> Iterator[Tuple]:
        from repro.core.tuples import Column
        for t in self.child:
            if self._schema is None:
                self._schema = Schema([Column(c) for c in self.columns],
                                      sources=t.schema.sources)
            yield Tuple(self._schema,
                        tuple(t[c] for c in self.columns),
                        timestamp=t.timestamp)


class HashJoinIterator(PlanIterator):
    """Classic build/probe hash join: blocks on the build side — the
    behaviour Fjords exist to avoid on streams, kept here as the
    snapshot-query baseline."""

    def __init__(self, build: PlanIterator, probe: PlanIterator,
                 build_key: str, probe_key: str,
                 residual: Optional[Predicate] = None):
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.residual = residual

    def __iter__(self) -> Iterator[Tuple]:
        table: Dict[Any, List[Tuple]] = {}
        for t in self.build:
            table.setdefault(t[self.build_key], []).append(t)
        for p in self.probe:
            for b in table.get(p[self.probe_key], ()):
                joined = b.concat(p)
                if self.residual is None or self.residual.matches(joined):
                    yield joined


class StaticFilterPlan:
    """A conjunctive filter pipeline with a frozen order.

    ``order_by_estimates`` plays the optimizer: it sorts predicates by
    their *estimated* selectivity (cheapest first), which is optimal if
    — and only while — the estimates hold.
    """

    def __init__(self, predicates: Sequence[Predicate],
                 estimated_selectivities: Optional[Sequence[float]] = None):
        if estimated_selectivities is not None:
            if len(estimated_selectivities) != len(predicates):
                raise PlanError("one estimate per predicate required")
            ranked = sorted(zip(estimated_selectivities, range(len(predicates))))
            self.predicates = [predicates[i] for _est, i in ranked]
        else:
            self.predicates = list(predicates)
        self.evaluations = 0
        self.passed = 0

    def process(self, t: Tuple) -> bool:
        """Run one tuple through the frozen pipeline."""
        for pred in self.predicates:
            self.evaluations += 1
            if not pred.matches(t):
                return False
        self.passed += 1
        return True

    def run(self, tuples: Iterable[Tuple]) -> List[Tuple]:
        return [t for t in tuples if self.process(t)]

    def describe(self) -> str:
        return " -> ".join(repr(p) for p in self.predicates)


def best_static_work(tuples: Sequence[Tuple],
                     predicates: Sequence[Predicate]) -> TypingTuple[int, List[int]]:
    """Offline oracle: the minimum total predicate evaluations any fixed
    order could have achieved on this exact data, found by trying every
    permutation (the paper frames eddies against an "optimal schedule"
    that is NP-hard in general; for the small filter counts of E1 brute
    force is exact).

    Returns (work, best order as predicate indices).
    """
    import itertools as it
    best = None
    best_order: List[int] = []
    # Precompute match bitsets per predicate to make permutations cheap.
    matches: List[List[bool]] = [
        [p.matches(t) for t in tuples] for p in predicates]
    n = len(tuples)
    for perm in it.permutations(range(len(predicates))):
        work = 0
        alive = list(range(n))
        for pi in perm:
            work += len(alive)
            alive = [i for i in alive if matches[pi][i]]
        if best is None or work < best:
            best = work
            best_order = list(perm)
    return best or 0, best_order
