"""Juggle: online reordering for prioritising records by content
([RRH99], cited in Sections 2.1 and 4.3).

Juggle sits in a dataflow and reorders the tuples passing through so
that records the *user currently cares about* are delivered first —
the mechanism the paper plans to reuse for pushing "user preferences
down into the query execution process" under QoS pressure.

The operator maintains a bounded buffer organised as priority buckets.
Each scheduling quantum it admits arriving tuples and emits the
highest-preference buffered tuples.  Preferences can be changed while
the dataflow runs (interactive control), which instantly redirects
delivery order — no restart, matching the online spirit of the paper.

Quality metric: for a prefix of delivered output, the fraction of
delivered tuples belonging to the user's preferred classes; FIFO
delivery is the baseline (experiment E13).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple as TypingTuple

from repro.core.tuples import Punctuation, Tuple
from repro.errors import PlanError
from repro.fjords.module import Module, StepResult
from repro.fjords.queues import EMPTY


class Juggle(Module):
    """Online reordering module.

    ``classify`` maps a tuple to a class key (e.g. a region name); the
    mutable ``preferences`` dict maps class keys to numeric priorities
    (higher = deliver sooner; missing classes get priority 0).

    ``buffer_capacity`` bounds memory: when full, Juggle emits before
    admitting more.  ``emit_quota`` controls how many tuples leave per
    quantum, modelling a consumer slower than the producer — the regime
    where reordering pays off (with an infinitely fast consumer, order
    barely matters).
    """

    def __init__(self, classify: Callable[[Tuple], Any],
                 preferences: Optional[Dict[Any, float]] = None,
                 buffer_capacity: int = 1024, emit_quota: int = 8,
                 name: str = ""):
        super().__init__(name=name or "juggle")
        if buffer_capacity < 1:
            raise PlanError("juggle buffer capacity must be >= 1")
        self.classify = classify
        self.preferences: Dict[Any, float] = dict(preferences or {})
        self.buffer_capacity = buffer_capacity
        self.emit_quota = emit_quota
        self._counter = itertools.count()
        #: heap of (-priority, admission order, tuple)
        self._heap: List[TypingTuple[float, int, Tuple]] = []
        self._draining = False
        self.reorders = 0

    def set_preference(self, class_key: Any, priority: float) -> None:
        """Change a preference while running.  Already-buffered tuples
        of the class are re-keyed (the "online" in online reordering)."""
        self.preferences[class_key] = priority
        rebuilt = []
        for _old_priority, order, t in self._heap:
            rebuilt.append((-self._priority(t), order, t))
        heapq.heapify(rebuilt)
        self._heap = rebuilt
        self.reorders += 1

    def _priority(self, t: Tuple) -> float:
        return self.preferences.get(self.classify(t), 0.0)

    def run_once(self, batch: Optional[int] = None) -> StepResult:
        if self.finished:
            return StepResult.DONE
        worked = False
        # Admit arrivals up to capacity.
        admit_budget = self.buffer_capacity - len(self._heap)
        queue = self.inputs[0]
        while admit_budget > 0:
            item = queue.pop()
            if item is EMPTY:
                break
            if isinstance(item, Punctuation):
                if item.kind == Punctuation.END_OF_STREAM:
                    self._draining = True
                else:
                    self.emit(item)
                worked = True
                continue
            self.tuples_in += 1
            heapq.heappush(self._heap,
                           (-self._priority(item), next(self._counter),
                            item))
            admit_budget -= 1
            worked = True
        # Emit the best buffered tuples.
        quota = self.emit_quota if not self._draining else len(self._heap)
        for _ in range(quota):
            if not self._heap:
                break
            _neg, _order, t = heapq.heappop(self._heap)
            self.emit(t)
            worked = True
        if self._draining and not self._heap:
            self.finished = True
            self.emit(Punctuation.eos(self.name))
            return StepResult.DONE
        return StepResult.BUSY if worked else StepResult.IDLE


def prefix_quality(delivered: Iterable[Tuple], prefix: int,
                   is_interesting: Callable[[Tuple], bool]) -> float:
    """Fraction of the first ``prefix`` delivered tuples that are
    interesting — the metric E13 reports for Juggle vs FIFO."""
    count = 0
    interesting = 0
    for t in delivered:
        if count >= prefix:
            break
        count += 1
        if is_interesting(t):
            interesting += 1
    return interesting / count if count else 0.0
