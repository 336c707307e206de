"""Adapting adaptivity, automatically (Section 4.3).

"These adjustments constitute a pair of knobs that can be turned as
observations of rate of change and relative selectivity vary: when
change is slow, or selectivity constant, many tuples should be routed
to large, fixed sequences of operators; when change is fast, or
selectivities vary wildly, small groups of tuples should be routed to
individually scheduled operators. ... implementing them requires ...
policies for automatically turning knobs based on rates of change and
relative selectivity."

:class:`AdaptivityController` is that policy: it samples each eddy
operator's windowed selectivity every ``check_every`` tuples, measures
the drift since the previous sample, and turns the batching knob —
multiplicatively shrinking the batch (more adaptivity) when drift
exceeds ``drift_threshold``, and growing it (less overhead) while
things stay quiet.  The controller swaps the eddy's
:class:`~repro.core.routing.BatchingDirective` for one with the new
batch size (``fix_sequence`` and ``vectorize`` kept) and invalidates
the cached routing decisions, so the change takes effect immediately.
It is the only code that turns the §4.3 knobs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple as TypingTuple

from repro.core.eddy import Eddy
from repro.errors import PlanError
from repro.monitor.stats import sample_drift


class AdaptivityController:
    """Automatic batching-knob control for one eddy."""

    #: grow only when drift falls below threshold * GROW_HYSTERESIS,
    #: so estimator noise near the threshold cannot make the knob
    #: oscillate every check interval.
    GROW_HYSTERESIS = 0.5

    def __init__(self, eddy: Eddy, min_batch: int = 1,
                 max_batch: int = 512, check_every: int = 200,
                 drift_threshold: float = 0.15,
                 grow_factor: int = 4):
        if min_batch < 1 or max_batch < min_batch:
            raise PlanError("need 1 <= min_batch <= max_batch")
        if grow_factor < 2:
            raise PlanError("grow_factor must be >= 2")
        self.eddy = eddy
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.check_every = check_every
        self.drift_threshold = drift_threshold
        self.grow_factor = grow_factor
        self._since_check = 0
        self._last_sample: Optional[Dict[str, float]] = None
        self.adjustments: List[TypingTuple[int, int, float]] = []
        self.checks = 0

    # -- the control loop ---------------------------------------------------
    def after_tuple(self, n: int = 1) -> Optional[int]:
        """Tell the controller ``n`` more tuples were processed; returns
        the new batch size when an adjustment fires, else None."""
        self._since_check += n
        if self._since_check < self.check_every:
            return None
        self._since_check = 0
        return self._check()

    def _check(self) -> Optional[int]:
        self.checks += 1
        sample = self.eddy.selectivity_sample()
        drift = self._drift(sample)
        self._last_sample = sample
        if drift is None:
            return None
        current = self.eddy.batching.batch_size
        if drift > self.drift_threshold:
            target = max(self.min_batch, current // self.grow_factor)
        elif drift < self.drift_threshold * self.GROW_HYSTERESIS:
            target = min(self.max_batch, current * self.grow_factor)
        else:
            return None          # dead band: hold the current setting
        if target == current:
            return None
        self._apply(target)
        self.adjustments.append((self.eddy.tuples_routed, target, drift))
        return target

    def _drift(self, sample: Dict[str, float]) -> Optional[float]:
        if self._last_sample is None:
            return None
        return sample_drift(self._last_sample, sample)

    def _apply(self, batch_size: int) -> None:
        # apply_quantum preserves the other directive knobs and drops
        # cached routing decisions sized for the old batch.
        self.eddy.apply_quantum(batch_size)

    # -- introspection ------------------------------------------------------
    @property
    def current_batch(self) -> int:
        return self.eddy.batching.batch_size

    def stats(self) -> Dict[str, object]:
        return {
            "checks": self.checks,
            "adjustments": len(self.adjustments),
            "current_batch": self.current_batch,
            "history": list(self.adjustments),
        }
