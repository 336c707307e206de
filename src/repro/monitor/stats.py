"""Runtime statistics: the evidence adaptive policies act on.

Streaming sources offer no reliable a-priori statistics (Section 1.1),
so everything the routing policies, the executor, and the QoS controller
know is *observed online*.  This module centralises the estimators:

* :class:`SelectivityTracker` — windowed pass-rate estimates per
  operator;
* :class:`RateEstimator` — arrival/service rates over a sliding window
  of ticks (drives overload detection);
* :func:`sample_drift` — selectivity drift between two samples (the
  §4.3 rate-of-change signal).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict


class SelectivityTracker:
    """Sliding-window selectivity estimate for one operator.

    Keeps the last ``window`` observations as a bit deque; the estimate
    is their mean.  A full-history counter is kept alongside so tests
    can compare "fresh" vs "stale" views (the drift experiments rely on
    the fresh one reacting).

    The blessed accessors are the :attr:`windowed_rate` and
    :attr:`lifetime_rate` properties — the vocabulary the telemetry
    snapshot uses.
    """

    def __init__(self, window: int = 256):
        self._window: Deque[int] = deque(maxlen=window)
        self.total_seen = 0
        self.total_passed = 0

    def observe(self, passed: bool) -> None:
        self._window.append(1 if passed else 0)
        self.total_seen += 1
        if passed:
            self.total_passed += 1

    @property
    def windowed_rate(self) -> float:
        """Pass rate over the sliding window (1.0 before evidence)."""
        if not self._window:
            return 1.0
        return sum(self._window) / len(self._window)

    @property
    def lifetime_rate(self) -> float:
        """Pass rate over the full history (1.0 before evidence)."""
        if not self.total_seen:
            return 1.0
        return self.total_passed / self.total_seen


def sample_drift(old: Dict[str, float], new: Dict[str, float]) -> float:
    """Selectivity drift between two ``{operator: selectivity}``
    samples: the max absolute per-operator delta over the operators
    present in both.

    This is the §4.3 "rate of change" signal
    :class:`~repro.core.adaptivity.AdaptivityController` acts on.
    """
    deltas = [abs(new[name] - value)
              for name, value in old.items() if name in new]
    return max(deltas, default=0.0)


class RateEstimator:
    """Events-per-tick over a sliding window of ticks."""

    def __init__(self, window_ticks: int = 32):
        self._events: Deque[int] = deque(maxlen=window_ticks)

    def tick(self, n_events: int) -> None:
        self._events.append(n_events)

    def rate(self) -> float:
        if not self._events:
            return 0.0
        return sum(self._events) / len(self._events)

    def peak(self) -> int:
        return max(self._events, default=0)
