"""Routing flight recorder and live EXPLAIN [ANALYZE] reconstruction.

In TelegraphCQ the plan is an emergent property: the eddy re-decides the
operator order per tuple (or per batch), so "what plan is this query
running?" has no static answer.  This module makes the de-facto plan
observable after the fact:

* :class:`FlightRecorder` — a bounded ring of recent
  :class:`RoutingDecision` records captured at every
  ``RoutingPolicy.choose`` call site inside the eddy: the tuple's ready
  set, the policy consulted, the operator chosen, and a
  tickets/selectivity/cost snapshot *at decision time*, so a surprising
  route can be explained by the evidence the policy actually saw.

* :func:`explain_eddy` — reconstructs an EXPLAIN report for one eddy:
  the dominant operator orderings with observed frequencies (from the
  sampled tuple traces when available, else from the flight recorder,
  else estimated from selectivities), per-operator visit/selectivity/
  cost, the batching/vectorize directive and effective quantum, and —
  under ANALYZE — ingress→egress latency percentiles from the traces.

``TelegraphCQServer.explain`` builds the equivalent report for server
cursors (the CACQ shared route is hardwired, so its ordering carries
frequency by ingress share); both render through
:func:`render_explain`, which is what the CLI ``EXPLAIN`` statement
prints.
"""

from __future__ import annotations

from collections import Counter as TallyCounter, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple as TypingTuple

import repro.monitor.tracing as tracing
from repro.monitor.clock import now

__all__ = ["RoutingDecision", "FlightRecorder", "RECORDER",
           "get_flight_recorder", "explain_eddy", "render_explain",
           "format_seconds"]


class RoutingDecision:
    """One recorded ``policy.choose`` outcome with its evidence."""

    __slots__ = ("eddy", "policy", "chosen", "ready", "selectivity",
                 "cost", "tickets", "rows", "at", "sched_pass")

    def __init__(self, eddy: str, policy: str, chosen: str,
                 ready: TypingTuple[str, ...],
                 selectivity: TypingTuple[float, ...],
                 cost: TypingTuple[float, ...],
                 tickets: TypingTuple[float, ...],
                 rows: int, at: float, sched_pass: str):
        self.eddy = eddy
        self.policy = policy
        self.chosen = chosen
        self.ready = ready            # eligible operator names, in order
        self.selectivity = selectivity  # aligned with ready
        self.cost = cost                # aligned with ready
        self.tickets = tickets          # aligned with ready ((), if n/a)
        self.rows = rows                # 1, or the batch width
        self.at = at
        self.sched_pass = sched_pass

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "eddy": self.eddy, "policy": self.policy,
            "chosen": self.chosen, "ready": list(self.ready),
            "selectivity": [round(s, 6) for s in self.selectivity],
            "cost": list(self.cost), "rows": self.rows, "at": self.at,
        }
        if self.tickets:
            d["tickets"] = list(self.tickets)
        if self.sched_pass:
            d["sched_pass"] = self.sched_pass
        return d

    def __repr__(self) -> str:
        return (f"RoutingDecision({self.eddy}: {self.policy} chose "
                f"{self.chosen} from {list(self.ready)})")


class FlightRecorder:
    """Bounded ring of recent routing decisions.

    Disabled by default: snapshotting selectivities/tickets per decision
    is cheap but not free, and the untraced hot path must stay at a
    single ``if rec.enabled`` test.  ``TRACE ON`` in the CLI (or
    :meth:`enable` programmatically) switches it on; the ring bounds
    memory regardless of uptime.
    """

    def __init__(self, capacity: int = 512, enabled: bool = False):
        self.capacity = int(capacity)
        self.enabled = enabled
        self._ring: Deque[RoutingDecision] = deque(maxlen=self.capacity)
        self.recorded = 0

    def configure(self, capacity: Optional[int] = None,
                  enabled: Optional[bool] = None) -> "FlightRecorder":
        if capacity is not None:
            self.capacity = int(capacity)
            self._ring = deque(self._ring, maxlen=self.capacity)
        if enabled is not None:
            self.enabled = bool(enabled)
        return self

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def record(self, eddy: str, policy: Any, chosen: Any,
               eligible: Sequence[Any], rows: int = 1) -> None:
        """Capture one decision (callers guard on :attr:`enabled`)."""
        self._ring.append(RoutingDecision(
            eddy=eddy,
            policy=policy.describe(),
            chosen=chosen.name,
            ready=tuple(op.name for op in eligible),
            selectivity=tuple(op.observed_selectivity()
                              for op in eligible),
            cost=tuple(float(op.cost_estimate()) for op in eligible),
            tickets=policy.tickets_snapshot(eligible),
            rows=rows,
            at=now(),
            sched_pass=tracing.TRACER.current_pass,
        ))
        self.recorded += 1

    def recent(self, n: int = 0) -> List[RoutingDecision]:
        decisions = list(self._ring)
        return decisions[-n:] if n > 0 else decisions

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._ring)


#: The process-wide recorder; eddies bind it at construction.
RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    return RECORDER


# -- EXPLAIN reconstruction ------------------------------------------------
def explain_eddy(eddy: Any, analyze: bool = False,
                 tracer: Optional[tracing.Tracer] = None,
                 recorder: Optional[FlightRecorder] = None
                 ) -> Dict[str, Any]:
    """Reconstruct the de-facto plan of one eddy from observability
    state.  Returns a plain dict (render with :func:`render_explain`)."""
    tracer = tracer if tracer is not None else tracing.TRACER
    recorder = recorder if recorder is not None else RECORDER
    site = getattr(eddy, "_telemetry_id", eddy.name)

    operators = [{
        "name": op.name,
        "kind": type(op).__name__,
        "visits": op.seen,
        "passed": op.passed_count,
        "selectivity": op.observed_selectivity(),
        "cost": float(op.cost_estimate()),
    } for op in eddy.operators]

    orderings, source = _orderings_from_traces(site, tracer)
    if not orderings:
        orderings, source = _orderings_from_recorder(eddy, site, recorder)
    if not orderings:
        orderings, source = _estimated_ordering(eddy)

    directive = eddy.batching
    report: Dict[str, Any] = {
        "kind": "eddy",
        "target": eddy.name,
        "telemetry_id": site,
        "policy": eddy.policy.describe(),
        "batching": {"batch_size": directive.batch_size,
                     "fix_sequence": directive.fix_sequence,
                     "vectorize": directive.vectorize},
        "quantum": directive.batch_size,
        "output_sources": sorted(eddy.output_sources),
        "operators": operators,
        "orderings": orderings,
        "ordering_source": source,
        "decisions_recorded": sum(1 for d in recorder.recent()
                                  if d.eddy == site),
    }
    if analyze:
        lats = [tr.latency() for tr in tracer.recent()
                if any(h.site == site for h in tr.hops)]
        pct = tracing.exact_percentiles(lats)
        report["latency"] = {"p50": pct[0.5], "p95": pct[0.95],
                             "p99": pct[0.99], "count": len(lats)}
    return report


def _orderings_from_traces(site: str, tracer: tracing.Tracer
                           ) -> TypingTuple[List[Dict[str, Any]], str]:
    tally: TallyCounter = TallyCounter()
    for tr in tracer.recent():
        seq = tr.operator_sequence(site)
        if seq:
            tally[seq] += 1
    total = sum(tally.values())
    if not total:
        return [], ""
    return [{"order": list(seq), "frequency": count / total,
             "count": count}
            for seq, count in tally.most_common()], "traces"


def _orderings_from_recorder(eddy: Any, site: str,
                             recorder: FlightRecorder
                             ) -> TypingTuple[List[Dict[str, Any]], str]:
    """With no traces in hand, chain the dominant choice per ready-set:
    start from the largest ready set seen and follow most-common picks
    until the chain leaves recorded territory."""
    decisions = [d for d in recorder.recent() if d.eddy == site]
    if not decisions:
        return [], ""
    by_ready: Dict[TypingTuple[str, ...], TallyCounter] = {}
    seen_ops: Dict[str, bool] = {}
    for d in decisions:
        by_ready.setdefault(d.ready, TallyCounter())[d.chosen] += 1
        for name in d.ready:
            seen_ops[name] = True
    ready = max(by_ready,
                key=lambda r: (len(r), sum(by_ready[r].values())))
    order: List[str] = []
    while ready in by_ready:
        chosen = by_ready[ready].most_common(1)[0][0]
        order.append(chosen)
        nxt = tuple(n for n in ready if n != chosen)
        if not nxt or nxt == ready:
            break
        ready = nxt
    by_sel = {op.name: op.observed_selectivity()
              for op in eddy.operators}
    for name in sorted(seen_ops, key=lambda n: by_sel.get(n, 1.0)):
        if name not in order:
            order.append(name)
    return ([{"order": order, "frequency": 1.0,
              "count": len(decisions)}], "flight-recorder")


def _estimated_ordering(eddy: Any
                        ) -> TypingTuple[List[Dict[str, Any]], str]:
    """No runtime evidence at all: rank by observed (or prior)
    selectivity, the order a greedy policy would converge to."""
    order = [op.name for op in
             sorted(eddy.operators,
                    key=lambda op: (op.observed_selectivity(),
                                    op.cost_estimate(), op.name))]
    return [{"order": order, "frequency": 1.0, "count": 0}], "estimated"


# -- rendering -------------------------------------------------------------
def format_seconds(seconds: float) -> str:
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def render_explain(report: Dict[str, Any]) -> str:
    """Human-readable EXPLAIN text from a report dict produced by
    :func:`explain_eddy` or ``TelegraphCQServer.explain``."""
    lines: List[str] = []
    kind = report.get("kind", "plan")
    lines.append(f"EXPLAIN {report.get('target', '?')} (kind={kind})")
    if report.get("policy"):
        lines.append(f"  policy:   {report['policy']}")
    batching = report.get("batching")
    if batching:
        lines.append("  batching: " + " ".join(
            f"{k}={v}" for k, v in batching.items()))
    if report.get("quantum") is not None:
        lines.append(f"  quantum:  {report['quantum']}")
    if report.get("output_sources"):
        lines.append("  output:   {" + ", ".join(
            report["output_sources"]) + "}")
    for extra in ("streams", "queries_sharing"):
        if report.get(extra) is not None:
            lines.append(f"  {extra}: {report[extra]}")
    orderings = report.get("orderings") or []
    if orderings:
        source = report.get("ordering_source", "")
        suffix = f" (source={source})" if source else ""
        lines.append(f"  dominant orderings{suffix}:")
        for o in orderings:
            route = " -> ".join(o["order"]) if o["order"] else "(none)"
            lines.append(f"    {o['frequency'] * 100:5.1f}%  {route}"
                         f"  (n={o['count']})")
    operators = report.get("operators") or []
    if operators:
        lines.append("  operators:")
        name_w = max(len("name"), max(len(o["name"]) for o in operators))
        kind_w = max(len("kind"), max(len(o.get("kind", ""))
                                      for o in operators))
        lines.append(f"    {'name'.ljust(name_w)}  {'kind'.ljust(kind_w)}"
                     f"  {'visits':>8}  {'passed':>8}  selectivity  cost")
        for o in operators:
            sel = o.get("selectivity")
            sel_text = f"{sel:11.4f}" if sel is not None else " " * 11
            lines.append(
                f"    {o['name'].ljust(name_w)}"
                f"  {o.get('kind', '').ljust(kind_w)}"
                f"  {o.get('visits', 0):>8}  {o.get('passed', 0):>8}"
                f"  {sel_text}  {o.get('cost', 0):.1f}")
    latency = report.get("latency")
    if latency:
        lines.append(
            "  latency (ingress->egress, sampled): "
            f"p50={format_seconds(latency['p50'])} "
            f"p95={format_seconds(latency['p95'])} "
            f"p99={format_seconds(latency['p99'])} "
            f"n={int(latency['count'])}")
    if report.get("decisions_recorded"):
        lines.append(f"  flight recorder: "
                     f"{report['decisions_recorded']} decisions captured")
    if report.get("notes"):
        for note in report["notes"]:
            lines.append(f"  note: {note}")
    return "\n".join(lines)
