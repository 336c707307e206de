"""Sampled end-to-end tuple tracing: follow one tuple hop by hop.

The aggregate counters in :mod:`repro.monitor.telemetry` answer "how
much"; they cannot answer "*where did this tuple's latency go*" or
"which operator order did it actually take" — and in an eddy-based
engine the order is decided per tuple, so no static plan can answer
either.  This module attaches a :class:`TraceContext` to every Nth
ingress tuple; instrumented sites along the dataflow (fjord queue
push/pop, each eddy visit with the operator chosen, SteM build/probe,
egress delivery) append timestamped :class:`Hop` records, and the trace
is closed at delivery.  Finished traces land in a bounded ring and are
exportable as JSON-lines or Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto).

Cost discipline — the reason this can stay compiled into the hot path:

* ingress sampling is one counter increment plus one modulo compare
  (``sample_every == 0`` keeps :attr:`Tracer.active` False and skips
  even that);
* every per-tuple site guards on ``t.trace is not None`` — a single
  slot load for the (vast) untraced majority;
* queue/egress sites guard on ``TRACER.active`` before touching the
  item at all.

On finish, each trace feeds the **latency watermarks**: per-query
ingress→egress histograms plus per-hop-kind time attribution, published
through the current :class:`~repro.monitor.telemetry.MetricRegistry` as
the ``tcq_trace_*`` family.  Timestamps come from
:mod:`repro.monitor.clock`, the same clock telemetry spans use, so spans
and hops are directly comparable.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence

import repro.monitor.telemetry as telemetry
from repro.monitor.clock import now

__all__ = ["Hop", "TraceContext", "Tracer", "TRACER", "get_tracer",
           "configure_tracing", "note_hop", "finish_item",
           "histogram_percentiles", "exact_percentiles",
           "latency_by_query", "LATENCY_BUCKETS"]

#: Bucket bounds for in-process latencies (microseconds to seconds);
#: the telemetry defaults start at 1ms, far too coarse for a hop.
LATENCY_BUCKETS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
                   1e-2, 5e-2, 0.1, 0.5, 1.0)


class Hop:
    """One timestamped waypoint in a tuple's journey."""

    __slots__ = ("at", "kind", "site", "detail", "sched_pass")

    def __init__(self, at: float, kind: str, site: str, detail: str,
                 sched_pass: str):
        self.at = at
        self.kind = kind          # ingress|queue|eddy|stem|emit|egress
        self.site = site          # queue / eddy / stem / module name
        self.detail = detail      # operator chosen, direction, ...
        self.sched_pass = sched_pass

    def to_dict(self, base: float = 0.0) -> Dict[str, Any]:
        d: Dict[str, Any] = {"t": round(self.at - base, 9),
                             "kind": self.kind, "site": self.site}
        if self.detail:
            d["detail"] = self.detail
        if self.sched_pass:
            d["sched_pass"] = self.sched_pass
        return d


class TraceContext:
    """The per-tuple trace: carried in the tuple's ``trace`` slot and
    propagated through joins (composites inherit a parent's context) and
    batches (a :class:`~repro.core.tuples.TupleBatch` carries the traces
    of its sampled rows)."""

    __slots__ = ("trace_id", "source", "query", "started_at",
                 "finished_at", "hops")

    def __init__(self, trace_id: int, source: str = ""):
        self.trace_id = trace_id
        self.source = source
        self.query = ""
        self.started_at = now()
        self.finished_at: Optional[float] = None
        self.hops: List[Hop] = []

    def hop(self, kind: str, site: str, detail: str = "") -> None:
        """Append one waypoint (annotated with the scheduler pass the
        engine is currently inside, if any)."""
        self.hops.append(Hop(now(), kind, site, detail,
                             TRACER.current_pass))

    def latency(self) -> float:
        """Ingress→egress seconds (up to "now" while still open)."""
        return (self.finished_at if self.finished_at is not None
                else now()) - self.started_at

    def operator_sequence(self, site: str) -> "tuple":
        """The operators this tuple visited at eddy ``site``, in order —
        the trace-level ground truth EXPLAIN aggregates into dominant
        orderings."""
        return tuple(h.detail for h in self.hops
                     if h.kind == "eddy" and h.site == site and h.detail)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "source": self.source,
            "query": self.query,
            "latency_s": round(self.latency(), 9),
            "finished": self.finished_at is not None,
            "hops": [h.to_dict(self.started_at) for h in self.hops],
        }


class Tracer:
    """Samples, carries, closes, and stores tuple traces.

    ``sample_every=N`` traces every Nth ingress tuple; 0 disables
    tracing entirely (:attr:`active` False — the production default).
    Finished traces live in a ``deque(maxlen=capacity)`` ring, so memory
    stays bounded no matter how long the engine runs.  Sampling uses
    :func:`itertools.count`, which is atomic under CPython, so
    concurrent ingress threads (Flux paths) cannot corrupt the counter —
    they merely interleave which tuples get picked.
    """

    def __init__(self, sample_every: int = 0, capacity: int = 256):
        self.sample_every = int(sample_every)
        self.capacity = int(capacity)
        self.active = self.sample_every > 0
        self._arrivals = itertools.count(1)
        self._ids = itertools.count(1)
        self._ring: Deque[TraceContext] = deque(maxlen=self.capacity)
        self.started = 0
        self.completed = 0
        #: "sched:pass" annotation stamped onto hops; maintained by
        #: Scheduler.pass_once so traces show which pass drove each hop.
        self.current_pass = ""

    # -- configuration ----------------------------------------------------
    def configure(self, sample_every: Optional[int] = None,
                  capacity: Optional[int] = None) -> "Tracer":
        if sample_every is not None:
            self.sample_every = int(sample_every)
            self.active = self.sample_every > 0
        if capacity is not None:
            self.capacity = int(capacity)
            self._ring = deque(self._ring, maxlen=self.capacity)
        return self

    # -- lifecycle --------------------------------------------------------
    def maybe_start(self, t: Any, source: str = "") -> Optional[TraceContext]:
        """Attach a trace to ``t`` if it is the Nth arrival.

        Callers on the hot path guard with ``if TRACER.active`` first, so
        the disabled cost is one attribute test; the enabled-but-unsampled
        cost is one counter bump plus one modulo compare.
        """
        if not self.active or not self.due():
            return None
        tr = t.trace = self.start(source)
        return tr

    def due(self) -> bool:
        """Count one arrival; True when it is the Nth (its trace should
        start).  For a door that decides before it builds the tuple."""
        return not next(self._arrivals) % self.sample_every

    def start(self, source: str = "") -> TraceContext:
        """Unconditionally start a trace (tests, ad-hoc probes)."""
        tr = TraceContext(next(self._ids), source)
        tr.hop("ingress", source or "ingress")
        self.started += 1
        return tr

    def finish(self, tr: Optional[TraceContext], query: str = "") -> None:
        """Close a trace at delivery; idempotent (a stored tuple can be
        delivered into several windows — the first delivery wins)."""
        if tr is None or tr.finished_at is not None:
            return
        tr.finished_at = now()
        if query:
            tr.query = query
        self._ring.append(tr)
        self.completed += 1
        self._publish(tr)

    def _publish(self, tr: TraceContext) -> None:
        """Feed the latency watermarks from one finished trace."""
        reg = telemetry.get_registry()
        if not reg.enabled:
            return
        query = tr.query or tr.source or "?"
        reg.histogram(
            "tcq_trace_e2e_latency_seconds",
            "Ingress-to-egress latency of sampled tuples",
            ("query",), buckets=LATENCY_BUCKETS).labels(query).observe(
            tr.latency())
        reg.counter("tcq_trace_traces_total",
                    "Sampled tuple traces completed",
                    ("query",)).labels(query).inc()
        hop_hist = reg.histogram(
            "tcq_trace_hop_seconds",
            "Per-hop time attribution of sampled tuples",
            ("kind",), buckets=LATENCY_BUCKETS)
        hops = tr.hops
        prev = tr.started_at
        for h in hops:
            hop_hist.labels(h.kind).observe(max(0.0, h.at - prev))
            prev = h.at
        reg.counter("tcq_trace_hops_total",
                    "Hops recorded across sampled traces").inc(len(hops))

    # -- ring access ------------------------------------------------------
    def recent(self, n: int = 0) -> List[TraceContext]:
        """The most recent finished traces (all of the ring when n<=0)."""
        traces = list(self._ring)
        return traces[-n:] if n > 0 else traces

    def clear(self) -> None:
        self._ring.clear()

    def reset(self) -> None:
        """Forget everything, keep configuration (tests)."""
        self._ring.clear()
        self._arrivals = itertools.count(1)
        self._ids = itertools.count(1)
        self.started = 0
        self.completed = 0
        self.current_pass = ""

    def summary(self) -> Dict[str, Any]:
        return {"sample_every": self.sample_every,
                "capacity": self.capacity, "active": self.active,
                "started": self.started, "completed": self.completed,
                "ring": len(self._ring)}

    # -- exporters --------------------------------------------------------
    def export_jsonl(self,
                     traces: Optional[Iterable[TraceContext]] = None) -> str:
        """One JSON object per line per trace (the ``TRACE DUMP``
        format)."""
        traces = self.recent() if traces is None else list(traces)
        return "\n".join(json.dumps(tr.to_dict(), sort_keys=True)
                         for tr in traces)

    def export_chrome(self,
                      traces: Optional[Iterable[TraceContext]] = None) -> str:
        """Chrome ``trace_event`` JSON: each hop becomes a complete
        ("X") event whose duration is the time since the previous hop,
        one virtual thread per trace.  Load in chrome://tracing or
        Perfetto."""
        traces = self.recent() if traces is None else list(traces)
        events: List[Dict[str, Any]] = []
        if traces:
            base = min(tr.started_at for tr in traces)
            for tr in traces:
                prev = tr.started_at
                for h in tr.hops:
                    name = f"{h.kind}:{h.site}"
                    if h.detail:
                        name += f":{h.detail}"
                    args: Dict[str, Any] = {}
                    if h.sched_pass:
                        args["sched_pass"] = h.sched_pass
                    events.append({
                        "name": name, "cat": h.kind, "ph": "X",
                        "pid": 1, "tid": tr.trace_id,
                        "ts": (prev - base) * 1e6,
                        "dur": max(0.0, h.at - prev) * 1e6,
                        "args": args,
                    })
                    prev = h.at
                if tr.finished_at is not None:
                    events.append({
                        "name": f"trace:{tr.query or tr.source or '?'}",
                        "cat": "trace", "ph": "X", "pid": 1,
                        "tid": tr.trace_id,
                        "ts": (tr.started_at - base) * 1e6,
                        "dur": (tr.finished_at - tr.started_at) * 1e6,
                        "args": {"trace_id": tr.trace_id},
                    })
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ms"})


#: The process-wide tracer every instrumented site reads.  Hot paths
#: access it as ``tracing.TRACER`` (module attribute) so reconfiguration
#: is visible everywhere immediately.
TRACER = Tracer()


def get_tracer() -> Tracer:
    return TRACER


def configure_tracing(sample_every: int,
                      capacity: Optional[int] = None) -> Tracer:
    """Convenience knob: ``configure_tracing(64)`` traces every 64th
    ingress tuple; ``configure_tracing(0)`` switches tracing off."""
    return TRACER.configure(sample_every=sample_every, capacity=capacity)


def note_hop(item: Any, kind: str, site: str, detail: str = "") -> None:
    """Record a hop on a queue item that may be a Tuple (``trace``
    slot), a TupleBatch (``traces`` tuple), or control punctuation
    (neither).  Call sites guard on ``TRACER.active`` first."""
    tr = getattr(item, "trace", None)
    if tr is not None:
        tr.hop(kind, site, detail)
        return
    for tr in getattr(item, "traces", ()) or ():
        tr.hop(kind, site, detail)


def finish_item(item: Any, query: str = "") -> None:
    """Close the trace(s) riding on a delivered item, if any."""
    tr = getattr(item, "trace", None)
    if tr is not None:
        TRACER.finish(tr, query)
        return
    for tr in getattr(item, "traces", ()) or ():
        TRACER.finish(tr, query)


# -- percentile helpers ----------------------------------------------------
def histogram_percentiles(sample: Any,
                          qs: Sequence[float] = (0.5, 0.95, 0.99)
                          ) -> Dict[float, float]:
    """Estimate quantiles from a histogram ``SeriesSample`` (cumulative
    ``(le, count)`` buckets) by linear interpolation inside the bucket
    containing each rank; the +Inf bucket reports its lower edge."""
    total = sample.count or 0
    buckets = sample.buckets or []
    if not total or not buckets:
        return {q: 0.0 for q in qs}
    out: Dict[float, float] = {}
    for q in qs:
        rank = q * total
        lo, prev_cum = 0.0, 0
        value = 0.0
        for le, cum in buckets:
            if cum >= rank:
                if le == float("inf"):
                    value = lo
                else:
                    span = cum - prev_cum
                    frac = (rank - prev_cum) / span if span else 1.0
                    value = lo + (le - lo) * frac
                break
            prev_cum = cum
            if le != float("inf"):
                lo = le
            value = lo
        out[q] = value
    return out


def exact_percentiles(values: Sequence[float],
                      qs: Sequence[float] = (0.5, 0.95, 0.99)
                      ) -> Dict[float, float]:
    """Nearest-rank quantiles over raw samples (used by EXPLAIN ANALYZE,
    which has the actual trace latencies in hand)."""
    if not values:
        return {q: 0.0 for q in qs}
    ordered = sorted(values)
    n = len(ordered)
    return {q: ordered[min(n - 1, max(0, int(q * n + 0.5) - 1))]
            for q in qs}


def latency_by_query(snapshot: Any = None) -> Dict[str, Dict[str, float]]:
    """p50/p95/p99 ingress→egress per query from the published
    ``tcq_trace_e2e_latency_seconds`` watermarks (the STATS LATENCY
    section)."""
    if snapshot is None:
        snapshot = telemetry.get_registry().snapshot()
    out: Dict[str, Dict[str, float]] = {}
    for s in snapshot.samples:
        if s.name != "tcq_trace_e2e_latency_seconds":
            continue
        pct = histogram_percentiles(s)
        out[s.labels.get("query", "?")] = {
            "p50": pct[0.5], "p95": pct[0.95], "p99": pct[0.99],
            "count": float(s.count or 0),
        }
    return out
