"""Incremental aggregate functions.

Section 4.1.2 of the paper observes that window type changes the state an
aggregate needs: a MAX over a *landmark* window can be maintained with
O(1) state ("simply comparing the current maximum to the newest element
as the window expands"), while a MAX over a *sliding* window "requires
the maintenance of the entire window".

We model this with two aggregate protocols:

* :class:`IncrementalAggregate` — insert-only, O(1) or O(distinct) state;
  correct for landmark / expanding windows.
* :class:`WindowAggregate` — supports retraction (``remove``); the
  MIN/MAX implementations keep a monotonic deque so sliding windows pay
  O(1) amortised per tuple but O(window) state, exactly the asymmetry
  the paper predicts.  Experiment E10 measures it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple as TypingTuple

from repro.errors import QueryError


class IncrementalAggregate:
    """Insert-only aggregate: ``add`` values, read ``result`` any time."""

    name = "aggregate"

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def add_many(self, values: Sequence[Any]) -> None:
        """``add`` each value in order (one call for a whole window)."""
        for value in values:
            self.add(value)

    def result(self) -> Any:
        raise NotImplementedError

    def state_size(self) -> int:
        """Number of retained values — the paper's memory argument."""
        raise NotImplementedError

    def fresh(self) -> "IncrementalAggregate":
        """A new empty instance of the same aggregate."""
        return type(self)()


class CountAggregate(IncrementalAggregate):
    name = "COUNT"

    def __init__(self) -> None:
        self._n = 0

    def add(self, value: Any) -> None:
        self._n += 1

    def add_many(self, values: Sequence[Any]) -> None:
        self._n += len(values)

    def result(self) -> int:
        return self._n

    def state_size(self) -> int:
        return 1


class SumAggregate(IncrementalAggregate):
    name = "SUM"

    def __init__(self) -> None:
        self._sum = 0
        self._n = 0

    def add(self, value: Any) -> None:
        self._sum += value
        self._n += 1

    def add_many(self, values: Sequence[Any]) -> None:
        total = self._sum
        for value in values:
            total += value
        self._sum = total
        self._n += len(values)

    def result(self) -> Any:
        return self._sum if self._n else None

    def state_size(self) -> int:
        return 1


class AvgAggregate(SumAggregate):
    name = "AVG"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def result(self) -> Optional[float]:
        return self._sum / self._n if self._n else None

    def state_size(self) -> int:
        return 2


class MinAggregate(IncrementalAggregate):
    """Landmark MIN: O(1) state, insert-only."""

    name = "MIN"

    def __init__(self) -> None:
        self._min: Any = None

    def add(self, value: Any) -> None:
        if self._min is None or value < self._min:
            self._min = value

    def result(self) -> Any:
        return self._min

    def state_size(self) -> int:
        return 1


class MaxAggregate(IncrementalAggregate):
    """Landmark MAX: O(1) state, insert-only."""

    name = "MAX"

    def __init__(self) -> None:
        self._max: Any = None

    def add(self, value: Any) -> None:
        if self._max is None or value > self._max:
            self._max = value

    def result(self) -> Any:
        return self._max

    def state_size(self) -> int:
        return 1


class WindowAggregate(IncrementalAggregate):
    """Aggregates that also support removing the oldest value, for
    sliding windows.  ``remove`` must be called with values in the same
    order they were added (FIFO eviction), which is what a sliding
    window does."""

    def remove(self, value: Any) -> None:
        raise NotImplementedError


class SlidingCount(WindowAggregate):
    name = "COUNT"

    def __init__(self) -> None:
        self._n = 0

    def add(self, value: Any) -> None:
        self._n += 1

    def remove(self, value: Any) -> None:
        self._n -= 1

    def result(self) -> int:
        return self._n

    def state_size(self) -> int:
        return 1


class SlidingSum(WindowAggregate):
    name = "SUM"

    def __init__(self) -> None:
        self._sum = 0
        self._n = 0

    def add(self, value: Any) -> None:
        self._sum += value
        self._n += 1

    def remove(self, value: Any) -> None:
        self._sum -= value
        self._n -= 1

    def result(self) -> Any:
        return self._sum if self._n else None

    def state_size(self) -> int:
        return 1


class SlidingAvg(WindowAggregate):
    name = "AVG"

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def add(self, value: Any) -> None:
        self._sum += value
        self._n += 1

    def remove(self, value: Any) -> None:
        self._sum -= value
        self._n -= 1

    def result(self) -> Optional[float]:
        return self._sum / self._n if self._n else None

    def state_size(self) -> int:
        return 2


class _MonotonicExtreme(WindowAggregate):
    """Sliding MIN/MAX via a monotonic deque.  O(1) amortised
    add/remove, but state grows with the window content in the worst
    case — the entire window for sorted input.

    ``better`` must be STRICT (``>`` for max): equal values are kept as
    duplicates in the deque so removal-by-value stays correct when the
    extreme occurs more than once in the window.
    """

    def __init__(self, better: Callable[[Any, Any], bool]):
        self._better = better          # True if first argument wins
        self._deque: Deque[Any] = deque()
        self._pending: Deque[Any] = deque()   # FIFO of live values

    def add(self, value: Any) -> None:
        self._pending.append(value)
        while self._deque and self._better(value, self._deque[-1]):
            self._deque.pop()
        self._deque.append(value)

    def remove(self, value: Any) -> None:
        if not self._pending:
            raise QueryError("remove from empty sliding aggregate")
        expected = self._pending.popleft()
        if expected != value:
            raise QueryError(
                f"sliding aggregate removal out of order: expected "
                f"{expected!r}, got {value!r}")
        if self._deque and self._deque[0] == value:
            self._deque.popleft()

    def result(self) -> Any:
        return self._deque[0] if self._deque else None

    def state_size(self) -> int:
        # Both deques are genuine retained state.
        return len(self._deque) + len(self._pending)


class SlidingMin(_MonotonicExtreme):
    name = "MIN"

    def __init__(self) -> None:
        super().__init__(lambda a, b: a < b)


class SlidingMax(_MonotonicExtreme):
    name = "MAX"

    def __init__(self) -> None:
        super().__init__(lambda a, b: a > b)


class NaiveSlidingExtreme(WindowAggregate):
    """The strawman the paper describes: keep the whole window and rescan
    on demand.  Used by the E10 ablation as the upper bound on state."""

    def __init__(self, fn: Callable[[List[Any]], Any], name: str = "MAX"):
        self._values: Deque[Any] = deque()
        self._fn = fn
        self.name = name

    def add(self, value: Any) -> None:
        self._values.append(value)

    def remove(self, value: Any) -> None:
        head = self._values.popleft()
        if head != value:
            raise QueryError("out-of-order removal from naive window")

    def result(self) -> Any:
        return self._fn(self._values) if self._values else None

    def state_size(self) -> int:
        return len(self._values)

    def fresh(self) -> "NaiveSlidingExtreme":
        return NaiveSlidingExtreme(self._fn, self.name)


class StdDevAggregate(IncrementalAggregate):
    """Welford's online standard deviation — used by the network-monitor
    example for anomaly thresholds."""

    name = "STDDEV"

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: Any) -> None:
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    def result(self) -> Optional[float]:
        if self._n < 2:
            return 0.0 if self._n == 1 else None
        return math.sqrt(self._m2 / (self._n - 1))

    def mean(self) -> Optional[float]:
        return self._mean if self._n else None

    def state_size(self) -> int:
        return 3


#: Registry used by the query compiler: name -> (landmark class,
#: sliding class).
AGGREGATES: Dict[str, TypingTuple[type, type]] = {
    "COUNT": (CountAggregate, SlidingCount),
    "SUM": (SumAggregate, SlidingSum),
    "AVG": (AvgAggregate, SlidingAvg),
    "MIN": (MinAggregate, SlidingMin),
    "MAX": (MaxAggregate, SlidingMax),
    "STDDEV": (StdDevAggregate, StdDevAggregate),
}


def make_aggregate(name: str, sliding: bool = False) -> IncrementalAggregate:
    """Instantiate an aggregate by SQL name.

    ``sliding=True`` returns the retraction-capable variant needed for
    sliding windows; landmark windows use the O(1)-state variant.
    """
    key = name.upper()
    if key not in AGGREGATES:
        raise QueryError(
            f"unknown aggregate {name!r}; known: {sorted(AGGREGATES)}")
    landmark_cls, sliding_cls = AGGREGATES[key]
    return sliding_cls() if sliding else landmark_cls()
