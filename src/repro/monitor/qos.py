"""Quality of Service: load shedding under overload (Section 4.3).

When arrival rate exceeds service rate, a stream engine must decide
"what work to drop when the system is in danger of falling behind the
incoming data stream".  TelegraphCQ's position (via Juggle/[UF02]) is to
push *user preferences* into that decision rather than dropping blindly.

:class:`LoadShedder` implements three policies the E12 benchmark
compares:

* ``none``      — never drop; queues (and latency) grow without bound;
* ``random``    — drop a uniform fraction sized to the overload factor;
* ``preferred`` — drop from the least-preferred classes first, spending
  the drop budget where the user cares least.

The controller recomputes the drop rate every epoch from observed
arrival/service rates, so bursts raise shedding and lulls lower it —
graceful degradation instead of collapse.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.tuples import Tuple
from repro.errors import QosError
from repro.monitor.stats import RateEstimator
from repro.monitor.telemetry import get_registry


class LoadShedder:
    """Admission control in front of an engine."""

    POLICIES = ("none", "random", "preferred")

    def __init__(self, policy: str = "random",
                 target_utilisation: float = 0.9,
                 classify: Optional[Callable[[Tuple], Any]] = None,
                 preferences: Optional[Dict[Any, float]] = None,
                 seed: int = 0):
        if policy not in self.POLICIES:
            raise QosError(f"unknown shedding policy {policy!r}")
        if policy == "preferred" and classify is None:
            raise QosError("preferred shedding needs a classify function")
        self.policy = policy
        self.target_utilisation = target_utilisation
        self.classify = classify
        self.preferences = dict(preferences or {})
        self._rng = random.Random(seed)
        self.arrival = RateEstimator()
        self.service = RateEstimator()
        self.drop_rate = 0.0
        self.admitted = 0
        self.dropped = 0
        self.dropped_by_class: Dict[Any, int] = {}
        self._telemetry = get_registry()
        self._telemetry.register_collector(self._publish_telemetry)

    # -- control loop ---------------------------------------------------------
    def update(self, arrived: int, serviced: int) -> float:
        """Feed one epoch's counts; returns the new drop rate.

        The drop rate aims service capacity at ``target_utilisation``:
        admitting more than the engine retires per epoch only grows the
        queue, so the surplus fraction is shed.
        """
        self.arrival.tick(arrived)
        self.service.tick(serviced)
        if self.policy == "none":
            self.drop_rate = 0.0
            return 0.0
        arrival_rate = self.arrival.rate()
        capacity = self.service.rate() * self.target_utilisation
        if arrival_rate <= 0 or arrival_rate <= capacity:
            self.drop_rate = 0.0
        else:
            self.drop_rate = 1.0 - (capacity / arrival_rate)
        return self.drop_rate

    # -- admission ---------------------------------------------------------------
    def admit(self, batch: Sequence[Tuple]) -> Sequence[Tuple]:
        """Filter a batch according to the current drop rate: the kept
        tuples, or the batch itself, untouched, when nothing is dropped
        (so an idle shedder reads no row)."""
        if self.drop_rate <= 0.0 or self.policy == "none":
            self.admitted += len(batch)
            return batch
        if self.policy == "random":
            kept = [t for t in batch if self._rng.random() >= self.drop_rate]
        else:
            kept = self._admit_preferred(batch)
        n_dropped = len(batch) - len(kept)
        self.dropped += n_dropped
        self.admitted += len(kept)
        return kept

    def _admit_preferred(self, batch: Sequence[Tuple]) -> List[Tuple]:
        """Drop the batch's least-preferred tuples first."""
        budget = int(round(len(batch) * self.drop_rate))
        if budget <= 0:
            return list(batch)
        ranked = sorted(
            batch, key=lambda t: self.preferences.get(self.classify(t), 0.0))
        victims = ranked[:budget]
        victim_ids = {id(t) for t in victims}
        for t in victims:
            key = self.classify(t)
            self.dropped_by_class[key] = self.dropped_by_class.get(key, 0) + 1
        return [t for t in batch if id(t) not in victim_ids]

    # -- telemetry ---------------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        reg.counter("tcq_qos_admitted_total",
                    "Tuples admitted past the load shedder", ("policy",),
                    collected=True).labels(self.policy).set_total(
            self.admitted)
        reg.counter("tcq_qos_dropped_total",
                    "Tuples shed by the load shedder", ("policy",),
                    collected=True).labels(self.policy).set_total(
            self.dropped)
        reg.gauge("tcq_qos_drop_rate", "Current controller drop rate",
                  ("policy",), collected=True).labels(self.policy).set(
            self.drop_rate)
        reg.gauge("tcq_qos_completeness",
                  "Fraction of arrivals admitted so far", ("policy",),
                  collected=True).labels(self.policy).set(
            self.completeness())
        by_class = reg.counter("tcq_qos_dropped_by_class_total",
                               "Preferred-policy drops per tuple class",
                               ("policy", "klass"), collected=True)
        for key, count in self.dropped_by_class.items():
            by_class.labels(self.policy, str(key)).set_total(count)

    # -- reporting ---------------------------------------------------------------
    def completeness(self) -> float:
        total = self.admitted + self.dropped
        return self.admitted / total if total else 1.0

    def stats(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "drop_rate": self.drop_rate,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "completeness": self.completeness(),
            "dropped_by_class": dict(self.dropped_by_class),
        }
