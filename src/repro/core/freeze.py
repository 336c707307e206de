"""Adaptive plan freezing: §4.3 "adapting adaptivity" taken to its limit.

The eddy pays for adaptivity on every batch: a representative row, an
eligibility scan, and a policy consultation per hop.  The paper argues
that price should only be paid while selectivities *drift*; once a
footprint class (same ``done`` bitmap, same source set) keeps taking the
same operator route, that route can be compiled down to straight-line
batch code.

:class:`PlanFreezer` closes the loop:

* **detect** — per footprint class, a
  :class:`~repro.monitor.stats.StabilityCounter` tracks how many
  consecutive completed batches took the identical route; a streak of
  ``stable_routes`` proves the plan has settled;
* **freeze** — the route is compiled into a :class:`FrozenPipeline`:
  consecutive filters fuse into one
  :class:`~repro.query.predicates.FusedChain` kernel (one combined
  selection vector, ONE partition per segment instead of one per
  filter), SteM hops run their batch kernels in pinned order, and the
  per-hop representative/eligibility/policy machinery is bypassed
  entirely;
* **thaw** — selectivity EWMAs keep updating from the fused masks, so
  :func:`~repro.monitor.stats.sample_drift` against the freeze-time
  sample stays live; drift past ``drift_threshold`` (checked every
  ``check_every`` frozen rows, or pushed by the
  :class:`~repro.core.adaptivity.AdaptivityController`) thaws the class
  back to adaptive routing.  When the PR 4 flight recorder is on, a
  recorded decision that contradicts the frozen order (per-tuple path,
  composite re-routing) also thaws — observed route-change beats any
  drift estimate.

Counter parity: frozen execution updates exactly the same data-plane
counters (``seen``/``passed_count`` per operator, SteM build/probe
counters, eddy ``tuples_routed``/``outputs_emitted``) as the adaptive
vectorized path, by restricting each fused stage's full-width mask to
the rows still alive after earlier stages and handing that outcome
sequence to the operator's own ``_observe_batch`` — the same body the
unfused path calls, so the EWMA selectivities match too.  One
deliberate divergence: rows failing a fused segment collect the
done-bits of *every* filter in the segment (the adaptive path stops
marking at the failing hop).  Those rows are dead — never emitted,
skipped by probes — so the extra bits are unobservable.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple as TypingTuple

from repro.core.eddy import EddyOperator, FilterOperator
from repro.core.tuples import TupleBatch
from repro.errors import PlanError
import repro.monitor.introspect as introspect
from repro.monitor.stats import StabilityCounter, sample_drift
from repro.monitor.telemetry import get_registry
from repro.query.predicates import FusedChain

__all__ = ["FrozenPipeline", "PlanFreezer"]

_FREEZER_IDS = itertools.count()

#: A footprint-class key: (done bitmap, source set) — the same "routing
#: situation" key the eddy's amortized route cache uses.
FreezeKey = TypingTuple[int, frozenset]


class _FusedFilters:
    """A run of consecutive FilterOperators compiled into one kernel."""

    __slots__ = ("ops", "chain")

    def __init__(self, ops: Sequence[FilterOperator]):
        self.ops = list(ops)
        self.chain = FusedChain([op.predicate for op in self.ops])

    def apply(self, batch: TupleBatch) -> Optional[TupleBatch]:
        """Evaluate the whole chain, partition once, keep counters in
        lock-step with the unfused path."""
        alive, masks = self.chain(batch)
        prior: Optional[List[bool]] = None
        for op, mask in zip(self.ops, masks):
            # The outcomes this stage would have seen unfused: its mask
            # at the rows every earlier stage passed.
            outcomes = mask if prior is None \
                else list(itertools.compress(mask, prior))
            if op.cost:
                # The synthetic work knob burns per surviving row, as in
                # FilterOperator.handle_batch.
                acc = 0
                for i in range(op.cost * len(outcomes)):
                    acc += i
            op._observe_batch(outcomes)
            batch.mark_done(op.bit)
            prior = mask if prior is None \
                else [a and b for a, b in zip(prior, mask)]
        if all(alive):
            return batch
        passed, failed = batch.partition(alive)
        failed.mark_dead()
        return passed if len(passed) else None


class FrozenPipeline:
    """A footprint class's settled route, compiled for batch execution."""

    __slots__ = ("key", "order", "segments")

    def __init__(self, key: FreezeKey, ops: Sequence[EddyOperator]):
        self.key = key
        self.order: TypingTuple[str, ...] = tuple(op.name for op in ops)
        segments: List[Any] = []
        run: List[FilterOperator] = []
        for op in ops:
            if isinstance(op, FilterOperator):
                run.append(op)
            else:
                if run:
                    segments.append(_FusedFilters(run))
                    run = []
                segments.append(op)
        if run:
            segments.append(_FusedFilters(run))
        self.segments = segments

    def run(self, eddy: Any, batch: TupleBatch, results: List) -> None:
        """Execute the pinned route on ``batch``, appending emissions to
        ``results`` exactly as ``Eddy.process_batch`` would."""
        site = eddy._telemetry_id
        pending = []
        current: Optional[TupleBatch] = batch
        for seg in self.segments:
            if current is None or not len(current):
                break
            if isinstance(seg, _FusedFilters):
                if current.traces:
                    for op in seg.ops:
                        for tr in current.traces:
                            tr.hop("eddy", site, op.name)
                current = seg.apply(current)
            else:
                if current.traces:
                    for tr in current.traces:
                        tr.hop("eddy", site, seg.name)
                current.mark_done(seg.bit)
                current, outputs = seg.handle_batch(current)
                for out in outputs:
                    eddy._fix_composite_done(out)
                    out.mark_done(seg.bit)
                    pending.append(out)
        if current is not None and len(current):
            eddy._emit_batch(current, results)
        if pending:
            # Composites diverge per row; they re-enter the ADAPTIVE
            # loop (fresh decisions, visible to the flight recorder),
            # same as the vectorized path's fall-back.
            eddy._route_worklist(pending, results, fresh_decisions=True)

    def describe(self) -> Dict[str, Any]:
        done, sources = self.key
        return {
            "class": {"done": done, "sources": sorted(sources)},
            "order": list(self.order),
            "fused_segments": [
                [op.name for op in seg.ops]
                for seg in self.segments if isinstance(seg, _FusedFilters)],
        }


class PlanFreezer:
    """Freeze/thaw controller for one eddy.

    Created via :meth:`Eddy.enable_freezing`; the eddy consults
    :attr:`frozen` at the top of ``process_batch`` and reports every
    adaptively routed batch through :meth:`observe_route`.
    """

    #: cap on the thaw audit log.
    MAX_LOG = 64

    def __init__(self, eddy: Any, stable_routes: int = 4,
                 drift_threshold: float = 0.15, check_every: int = 512):
        self.eddy = eddy
        self.stable_routes = int(stable_routes)
        self.drift_threshold = float(drift_threshold)
        self.check_every = int(check_every)
        self.frozen: Dict[FreezeKey, FrozenPipeline] = {}
        self._streaks: Dict[FreezeKey, StabilityCounter] = {}
        #: selectivity sample captured at freeze time, per class.
        self._baseline: Dict[FreezeKey, Dict[str, float]] = {}
        self._rows_since_check: Dict[FreezeKey, int] = {}
        #: flight-recorder high-water mark at freeze time, per class.
        self._recorder_mark: Dict[FreezeKey, int] = {}
        self.freezes = 0
        self.thaws = 0
        self.frozen_batches = 0
        self.frozen_rows = 0
        self.thaw_log: List[Dict[str, Any]] = []
        self._telemetry = get_registry()
        self._telemetry_id = \
            f"{eddy._telemetry_id}/freezer#{next(_FREEZER_IDS)}"
        self._telemetry.register_collector(self._publish_telemetry)

    # -- freeze side -------------------------------------------------------
    def observe_route(self, key: FreezeKey, route: Sequence[str],
                      complete: bool) -> None:
        """One adaptively routed batch of class ``key`` took ``route``.

        Only *completed* batches (survivors reached emission
        eligibility) count toward a freeze: a batch that died mid-route
        observed a truncated route, and freezing it would let future
        survivors skip the unvisited operators.
        """
        if not complete or key in self.frozen:
            return
        streak = self._streaks.setdefault(key, StabilityCounter())
        if streak.observe(tuple(route)) >= self.stable_routes:
            self._freeze(key, tuple(route))

    def _freeze(self, key: FreezeKey, route: TypingTuple[str, ...]) -> None:
        try:
            ops = [self.eddy.operator(name) for name in route]
        except PlanError:      # pragma: no cover - route names come
            return             # from the eddy itself
        self.frozen[key] = FrozenPipeline(key, ops)
        self._baseline[key] = self.eddy.selectivity_sample()
        self._rows_since_check[key] = 0
        self._recorder_mark[key] = introspect.RECORDER.recorded
        self.freezes += 1

    # -- frozen execution --------------------------------------------------
    def after_frozen_batch(self, key: FreezeKey, n_rows: int) -> None:
        """Post-batch bookkeeping + periodic thaw check."""
        self.frozen_batches += 1
        self.frozen_rows += n_rows
        since = self._rows_since_check.get(key, 0) + n_rows
        if since < self.check_every:
            self._rows_since_check[key] = since
            return
        self._rows_since_check[key] = 0
        sample = self.eddy.selectivity_sample()
        drift = sample_drift(self._baseline.get(key, {}), sample)
        if drift > self.drift_threshold:
            self.thaw(key, reason=f"drift {drift:.3f}")
            return
        if self._route_change_observed(key):
            self.thaw(key, reason="route-change (flight recorder)")

    def _route_change_observed(self, key: FreezeKey) -> bool:
        """Flight-recorder evidence against the frozen order.

        Decisions recorded since the freeze come from the eddy's still
        adaptive paths (per-tuple routing, composite re-routing).  One
        whose ready set lies within the frozen route but whose choice
        contradicts the pinned relative order means the policy now
        prefers a different plan for the same evidence."""
        rec = introspect.RECORDER
        if not rec.enabled:
            return False
        mark = self._recorder_mark.get(key, rec.recorded)
        fresh = rec.recorded - mark
        if fresh <= 0:
            return False
        pipeline = self.frozen[key]
        route_ops = set(pipeline.order)
        site = self.eddy._telemetry_id
        for d in rec.recent(min(fresh, rec.capacity)):
            if d.eddy != site or not set(d.ready) <= route_ops:
                continue
            pinned_first = next((name for name in pipeline.order
                                 if name in d.ready), None)
            if pinned_first is not None and d.chosen != pinned_first:
                return True
        self._recorder_mark[key] = rec.recorded
        return False

    # -- thaw side ---------------------------------------------------------
    def thaw(self, key: FreezeKey, reason: str = "") -> bool:
        """Return ``key`` to adaptive routing; True if it was frozen."""
        pipeline = self.frozen.pop(key, None)
        if pipeline is None:
            return False
        self._baseline.pop(key, None)
        self._rows_since_check.pop(key, None)
        self._recorder_mark.pop(key, None)
        # A re-freeze needs a fresh streak of evidence.
        streak = self._streaks.get(key)
        if streak is not None:
            streak.reset()
        self.thaws += 1
        if len(self.thaw_log) < self.MAX_LOG:
            done, sources = key
            self.thaw_log.append({"done": done,
                                  "sources": sorted(sources),
                                  "order": list(pipeline.order),
                                  "reason": reason})
        return True

    def thaw_all(self, reason: str = "") -> int:
        count = 0
        for key in list(self.frozen):
            if self.thaw(key, reason=reason):
                count += 1
        return count

    def note_drift(self, drift: float) -> None:
        """Push-style drift feed (the AdaptivityController computes
        drift on its own cadence; no reason to wait for ours)."""
        if self.frozen and drift > self.drift_threshold:
            self.thaw_all(reason=f"controller drift {drift:.3f}")

    # -- introspection -----------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        return {
            "active": len(self.frozen),
            "freezes": self.freezes,
            "thaws": self.thaws,
            "frozen_batches": self.frozen_batches,
            "frozen_rows": self.frozen_rows,
            "stable_routes": self.stable_routes,
            "drift_threshold": self.drift_threshold,
            "pipelines": [p.describe() for p in self.frozen.values()],
            "recent_thaws": list(self.thaw_log[-8:]),
        }

    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        fz = self._telemetry_id
        reg.counter("tcq_freeze_engaged_total",
                    "Footprint-class routes frozen into compiled "
                    "pipelines", ("freezer",),
                    collected=True).labels(fz).set_total(self.freezes)
        reg.counter("tcq_freeze_thaws_total",
                    "Frozen routes returned to adaptive routing",
                    ("freezer",),
                    collected=True).labels(fz).set_total(self.thaws)
        reg.counter("tcq_freeze_frozen_batches_total",
                    "Batches executed by frozen pipelines", ("freezer",),
                    collected=True).labels(fz).set_total(
            self.frozen_batches)
        reg.counter("tcq_freeze_frozen_rows_total",
                    "Rows executed by frozen pipelines", ("freezer",),
                    collected=True).labels(fz).set_total(self.frozen_rows)
        reg.gauge("tcq_freeze_active",
                  "Footprint classes currently frozen", ("freezer",),
                  collected=True).labels(fz).set(len(self.frozen))
