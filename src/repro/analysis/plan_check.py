"""tcqcheck target 1: the static plan verifier.

TelegraphCQ admits ad-hoc continuous queries into a *shared*,
adaptively-routed dataflow, so one malformed or unsatisfiable query
degrades every co-resident query — and because the eddy picks operator
order per tuple, there is no static plan whose construction would have
caught the error.  This module runs the checks a plan constructor would
have run, *before admission*:

* per-column interval analysis over the conjunction's boolean factors
  (contradictions ``TCQ101``, duplicates ``TCQ201``, subsumption
  ``TCQ202``, trivial self-comparisons ``TCQ203``);
* equality-chain propagation across join columns (``TCQ102``);
* join-graph connectivity for continuous queries — a stream with no
  equijoin path to the rest of the footprint has no SteM pair and no
  probe access path, so composite results can never be produced
  (``TCQ103``);
* window-clause simulation — loops that never enter, windows that are
  empty at every iteration, non-progressing updates, and slides that
  exceed the range so tuples fall in gaps (``TCQ105``, ``TCQ106``,
  ``TCQ206``);
* an admission-context check against the running server —
  lineage/ready-bit crowding of the shared engine (``TCQ205``).

Everything returns :class:`~repro.analysis.report.Diagnostic` lists;
:meth:`repro.core.engine.TelegraphCQServer.submit` rejects on errors
(``allow_unsafe=True`` bypasses) and surfaces warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple as TypingTuple)

from repro.analysis.report import Diagnostic, DiagnosticReport, NO_SPAN
from repro.errors import ParseError, QueryError
from repro.query.ast import ForLoopClause, QuerySpec
from repro.query.catalog import Catalog
from repro.query.predicates import (ColumnComparison, Comparison, Predicate,
                                    join_order)

#: Default ceiling for lineage/ready-bit width warnings.  Query and
#: operator bitmaps are plain Python integers, so nothing *breaks* past
#: this — but every mask test walks the full width, so a crowded class
#: is a per-tuple cost paid by all co-resident queries.
DEFAULT_LINEAGE_CAPACITY = 64

#: How many loop iterations the window simulator evaluates.
_MAX_SIM_ITERATIONS = 512


@dataclass
class AdmissionContext:
    """What the plan verifier knows about the running server: how many
    continuous queries stand in its shared engine."""

    standing_queries: int = 0
    lineage_capacity: int = DEFAULT_LINEAGE_CAPACITY


# -- value typing -------------------------------------------------------------

def _type_class(value: Any) -> str:
    if isinstance(value, bool):
        return "number"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "other"


def _comparable(a: Any, b: Any) -> bool:
    ta, tb = _type_class(a), _type_class(b)
    return ta == tb and ta != "other"


def _span_of(factor: Predicate) -> TypingTuple[int, int]:
    span = getattr(factor, "span", None)
    return span if span else NO_SPAN


# -- per-column interval analysis ---------------------------------------------

class _ColumnState:
    """Accumulated constraints on one column from conjunctive factors."""

    __slots__ = ("column", "lo", "lo_strict", "lo_factor",
                 "hi", "hi_strict", "hi_factor", "eq", "eq_factor", "neq")

    def __init__(self, column: str):
        self.column = column
        self.lo: Any = None
        self.lo_strict = False
        self.lo_factor: Optional[Comparison] = None
        self.hi: Any = None
        self.hi_strict = False
        self.hi_factor: Optional[Comparison] = None
        self.eq: Any = None
        self.eq_factor: Optional[Comparison] = None
        self.neq: List[Comparison] = []

    def allows(self, value: Any) -> bool:
        """Does ``value`` satisfy every range constraint seen so far?"""
        if self.lo is not None and _comparable(value, self.lo):
            if value < self.lo or (value == self.lo and self.lo_strict):
                return False
        if self.hi is not None and _comparable(value, self.hi):
            if value > self.hi or (value == self.hi and self.hi_strict):
                return False
        return True


def _conflict(source: str, factor: Predicate, other: Optional[Predicate],
              column: str, detail: str) -> Diagnostic:
    because = f" (with {other!r})" if other is not None else ""
    return Diagnostic(
        "TCQ101",
        f"contradictory constraints on {column!r}: {factor!r}{because} "
        f"{detail}",
        span=_span_of(factor), source=source,
        hint="the conjunction is unsatisfiable; no tuple can ever match")


def check_predicate(predicate: Predicate, source: str = "",
                    out: Optional[List[Diagnostic]] = None
                    ) -> List[Diagnostic]:
    """Analyse the top-level conjunction of ``predicate``.

    Factors nested inside OR / NOT are left alone (soundness: a
    disjunct being impossible does not make the query impossible).
    """
    diags: List[Diagnostic] = out if out is not None else []
    factors = predicate.conjuncts()
    singles = [f for f in factors if isinstance(f, Comparison)]
    columns = [f for f in factors if isinstance(f, ColumnComparison)]

    # Exact duplicates first, so the interval pass can skip repeats.
    seen: Dict[Any, Predicate] = {}
    deduped: List[Comparison] = []
    for f in singles:
        key = (f.column, f.op, f.value)
        if key in seen:
            diags.append(Diagnostic(
                "TCQ201",
                f"duplicate predicate factor {f!r}; CACQ folds it into "
                f"one grouped-filter entry",
                span=_span_of(f), source=source))
        else:
            seen[key] = f
            deduped.append(f)
    for f in columns:
        key = (f.left, f.op, f.right)
        if key in seen:
            diags.append(Diagnostic(
                "TCQ201", f"duplicate join factor {f!r}",
                span=_span_of(f), source=source))
        seen[key] = f

    states = _interval_pass(deduped, source, diags)
    _self_comparison_pass(columns, source, diags)
    _equality_chain_pass(columns, states, source, diags)
    return diags


def _interval_pass(singles: Sequence[Comparison], source: str,
                   diags: List[Diagnostic]) -> Dict[str, _ColumnState]:
    states: Dict[str, _ColumnState] = {}
    for f in singles:
        st = states.get(f.column)
        if st is None:
            st = states[f.column] = _ColumnState(f.column)
        op, v = f.op, f.value
        if op == "==":
            _apply_eq(st, f, v, source, diags)
        elif op == "!=":
            if st.eq is not None and st.eq == v and _comparable(st.eq, v):
                diags.append(_conflict(source, f, st.eq_factor, f.column,
                                       "excludes the pinned value"))
            else:
                st.neq.append(f)
        elif op in (">", ">="):
            _apply_lo(st, f, v, op == ">", source, diags)
        elif op in ("<", "<="):
            _apply_hi(st, f, v, op == "<", source, diags)
    return states


def _apply_eq(st: _ColumnState, f: Comparison, v: Any, source: str,
              diags: List[Diagnostic]) -> None:
    if st.eq_factor is not None and _comparable(st.eq, v) and st.eq != v:
        diags.append(_conflict(source, f, st.eq_factor, st.column,
                               "pins a second, different value"))
        return
    for nf in st.neq:
        if _comparable(nf.value, v) and nf.value == v:
            diags.append(_conflict(source, f, nf, st.column,
                                   "pins an excluded value"))
            return
    if not st.allows(v):
        bound = st.lo_factor if (st.lo is not None
                                 and not st.allows(v)) else st.hi_factor
        # Report against whichever bound actually rejects the value.
        culprit = st.lo_factor
        if st.hi is not None and _comparable(v, st.hi) and \
                (v > st.hi or (v == st.hi and st.hi_strict)):
            culprit = st.hi_factor
        diags.append(_conflict(source, f, culprit or bound, st.column,
                               "pins a value outside the allowed range"))
        return
    if st.eq_factor is None:
        st.eq, st.eq_factor = v, f
        # A pin makes existing range bounds redundant.
        for bf in (st.lo_factor, st.hi_factor):
            if bf is not None:
                diags.append(Diagnostic(
                    "TCQ202",
                    f"factor {bf!r} is subsumed by the equality {f!r}",
                    span=_span_of(bf), source=source))


def _apply_lo(st: _ColumnState, f: Comparison, v: Any, strict: bool,
              source: str, diags: List[Diagnostic]) -> None:
    if st.eq_factor is not None and _comparable(st.eq, v):
        ok = st.eq > v or (st.eq == v and not strict)
        if ok:
            diags.append(Diagnostic(
                "TCQ202",
                f"factor {f!r} is subsumed by the equality {st.eq_factor!r}",
                span=_span_of(f), source=source))
        else:
            diags.append(_conflict(source, f, st.eq_factor, st.column,
                                   "excludes the pinned value"))
        return
    if st.lo is not None and _comparable(v, st.lo):
        # Keep the tighter bound; the looser one is subsumed.
        tighter = v > st.lo or (v == st.lo and strict and not st.lo_strict)
        weaker = f if not tighter else st.lo_factor
        if (v, strict) != (st.lo, st.lo_strict):
            diags.append(Diagnostic(
                "TCQ202",
                f"factor {weaker!r} is subsumed by a tighter bound on "
                f"{st.column!r}",
                span=_span_of(weaker), source=source))
        if not tighter:
            return
    elif st.lo is not None:
        return                       # incomparable types; keep first bound
    st.lo, st.lo_strict, st.lo_factor = v, strict, f
    _check_range(st, f, source, diags)


def _apply_hi(st: _ColumnState, f: Comparison, v: Any, strict: bool,
              source: str, diags: List[Diagnostic]) -> None:
    if st.eq_factor is not None and _comparable(st.eq, v):
        ok = st.eq < v or (st.eq == v and not strict)
        if ok:
            diags.append(Diagnostic(
                "TCQ202",
                f"factor {f!r} is subsumed by the equality {st.eq_factor!r}",
                span=_span_of(f), source=source))
        else:
            diags.append(_conflict(source, f, st.eq_factor, st.column,
                                   "excludes the pinned value"))
        return
    if st.hi is not None and _comparable(v, st.hi):
        tighter = v < st.hi or (v == st.hi and strict and not st.hi_strict)
        weaker = f if not tighter else st.hi_factor
        if (v, strict) != (st.hi, st.hi_strict):
            diags.append(Diagnostic(
                "TCQ202",
                f"factor {weaker!r} is subsumed by a tighter bound on "
                f"{st.column!r}",
                span=_span_of(weaker), source=source))
        if not tighter:
            return
    elif st.hi is not None:
        return
    st.hi, st.hi_strict, st.hi_factor = v, strict, f
    _check_range(st, f, source, diags)


def _check_range(st: _ColumnState, newest: Comparison, source: str,
                 diags: List[Diagnostic]) -> None:
    if st.lo is None or st.hi is None or not _comparable(st.lo, st.hi):
        return
    empty = st.lo > st.hi or (st.lo == st.hi
                              and (st.lo_strict or st.hi_strict))
    if empty:
        other = st.hi_factor if newest is st.lo_factor else st.lo_factor
        diags.append(_conflict(source, newest, other, st.column,
                               "leaves an empty range"))


def _self_comparison_pass(columns: Sequence[ColumnComparison], source: str,
                          diags: List[Diagnostic]) -> None:
    for f in columns:
        if f.left != f.right:
            continue
        if f.op in ("==", "<=", ">="):
            diags.append(Diagnostic(
                "TCQ203",
                f"self-comparison {f!r} is always true; it filters nothing",
                span=_span_of(f), source=source))
        else:
            diags.append(_conflict(
                source, f, None, f.left,
                "compares a column against itself and can never hold"))


def _equality_chain_pass(columns: Sequence[ColumnComparison],
                         states: Dict[str, _ColumnState], source: str,
                         diags: List[Diagnostic]) -> None:
    """Union-find over ``a.x == b.y`` chains; propagate pinned constants
    and range bounds across each chain."""
    parent: Dict[str, str] = {}

    def find(c: str) -> str:
        parent.setdefault(c, c)
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    equalities = [f for f in columns
                  if f.op == "==" and f.left != f.right]
    for f in equalities:
        parent[find(f.left)] = find(f.right)
    chains: Dict[str, List[str]] = {}
    for c in parent:
        chains.setdefault(find(c), []).append(c)
    for members in chains.values():
        if len(members) < 2:
            continue
        pinned: Optional[TypingTuple[Any, Comparison]] = None
        for c in sorted(members):
            st = states.get(c)
            if st is None or st.eq_factor is None:
                continue
            if pinned is None:
                pinned = (st.eq, st.eq_factor)
            elif _comparable(pinned[0], st.eq) and pinned[0] != st.eq:
                diags.append(Diagnostic(
                    "TCQ102",
                    f"impossible equality chain: {pinned[1]!r} and "
                    f"{st.eq_factor!r} pin columns that are joined equal "
                    f"to different values",
                    span=_span_of(st.eq_factor), source=source,
                    hint="the join can never produce a match"))
        if pinned is None:
            continue
        value = pinned[0]
        for c in sorted(members):
            st = states.get(c)
            if st is None or st.eq_factor is not None:
                continue
            if not st.allows(value):
                diags.append(Diagnostic(
                    "TCQ102",
                    f"impossible equality chain: {pinned[1]!r} forces "
                    f"{c!r} to {value!r}, outside its allowed range",
                    span=_span_of(pinned[1]), source=source,
                    hint="the join can never produce a match"))


# -- join-graph connectivity ---------------------------------------------------

def check_join_graph(bindings: Sequence[TypingTuple[str, str]],
                     predicate: Predicate, spec: Optional[QuerySpec] = None,
                     source: str = "") -> List[Diagnostic]:
    """Continuous multi-stream queries need an equijoin path from every
    stream to the rest of the footprint: CACQ joins an arriving row in
    :func:`~repro.query.predicates.join_order` from its stream, one SteM
    probe per stream that order reaches.  A stream it never reaches has
    no probe access path — the query can never emit a multi-source
    result."""
    diags: List[Diagnostic] = []
    names = [b for b, _o in bindings]
    if len(names) < 2:
        return diags
    reached = join_order(names[0], predicate.conjuncts())
    spans: Dict[str, TypingTuple[int, int]] = {}
    if spec is not None:
        for s in spec.sources:
            spans[s.binding] = s.span
    for name in names:
        if name in reached:
            continue
        diags.append(Diagnostic(
            "TCQ103",
            f"stream {name!r} has no equijoin path to the rest of the "
            f"query; no SteM pair will be built and no probe can reach it",
            span=spans.get(name, NO_SPAN), source=source,
            hint="add an equality join factor linking it, or query it "
                 "separately"))
    return diags


# -- window-clause simulation --------------------------------------------------

class _WindowSim:
    """Observations from simulating one for-loop under one environment."""

    __slots__ = ("entered", "stuck", "widths", "gaps")

    def __init__(self) -> None:
        self.entered = False
        self.stuck = False
        #: per-clause-index list of (lo, hi) pairs
        self.widths: Dict[int, List[TypingTuple[int, int]]] = {}
        self.gaps: Set[int] = set()


def _simulate_loop(clause: ForLoopClause,
                   env: Dict[str, int]) -> Optional[_WindowSim]:
    """Step the loop ``clause`` lowers to under ``env`` (at most
    ``_MAX_SIM_ITERATIONS`` instances): stuck when two consecutive
    instances share their ``t``, a gap where a window's bounds leave
    some instant between two consecutive ones uncovered."""
    from repro.query.optimizer import for_loop_spec
    sim = _WindowSim()
    last_t: Any = None
    try:
        for instance in for_loop_spec(clause, env, _MAX_SIM_ITERATIONS):
            if sim.entered and instance.t == last_t:
                sim.stuck = True
                break
            sim.entered = True
            last_t = instance.t
            for i, w in enumerate(clause.windows):
                lo, hi = instance.bounds[w.stream]
                history = sim.widths.setdefault(i, [])
                if history:
                    prev_lo, prev_hi = history[-1]
                    if lo > prev_lo and lo > prev_hi + 1:
                        sim.gaps.add(i)
                history.append((lo, hi))
    except (QueryError, ArithmeticError, TypeError):
        return None                      # dynamic failure; not our call
    return sim


def check_windows(spec: QuerySpec, source: str = "") -> List[Diagnostic]:
    """Statically evaluate the for-loop/WindowIs clauses.

    Free variables (``ST``) are tried at two well-separated values; a
    problem is only reported when it shows under *every* trial, so
    translation-invariant specs are judged fairly."""
    clause = spec.for_loop
    if clause is None:
        return []
    diags: List[Diagnostic] = []
    free: Set[str] = set()
    for expr in (clause.initial, clause.condition[0], clause.condition[2],
                 clause.update[1]):
        free |= expr.variables()
    for w in clause.windows:
        free |= w.left.variables() | w.right.variables()
    free -= {clause.variable}
    if free:
        envs = [{v: 0 for v in free}, {v: 1000 for v in free}]
    else:
        envs = [{}]
    sims = [_simulate_loop(clause, env) for env in envs]
    sims = [s for s in sims if s is not None]
    if not sims:
        return diags
    if all(not s.entered for s in sims):
        diags.append(Diagnostic(
            "TCQ105",
            "for-loop condition is false at the initial value; no window "
            "ever fires",
            span=clause.span, source=source,
            hint="check the loop bounds against the initial value"))
        return diags
    if all(s.stuck for s in sims):
        diags.append(Diagnostic(
            "TCQ106",
            "for-loop update leaves the loop variable unchanged; the same "
            "window instant would be re-evaluated forever",
            span=clause.span, source=source,
            hint="make the update move the variable toward the exit "
                 "condition"))
        return diags
    for i, w in enumerate(clause.windows):
        per_env = [s.widths.get(i, []) for s in sims]
        if not all(per_env):
            continue
        if all(all(lo > hi for lo, hi in widths) for widths in per_env):
            diags.append(Diagnostic(
                "TCQ105",
                f"WindowIs({w.stream}, {w.left}, {w.right}) is empty "
                f"(left > right) at every iteration; the window can "
                f"never fire",
                span=w.span, source=source,
                hint="windows are inclusive [left, right]; swap or widen "
                     "the bounds"))
        elif all(i in s.gaps for s in sims):
            diags.append(Diagnostic(
                "TCQ206",
                f"WindowIs({w.stream}, {w.left}, {w.right}) slides "
                f"further than its range: consecutive windows leave gaps "
                f"no window ever covers",
                span=w.span, source=source,
                hint="tuples arriving in the gaps are invisible to this "
                     "query; widen the window or shrink the loop step"))
    return diags


# -- admission-context checks --------------------------------------------------

def check_admission(kind: str, predicate: Predicate,
                    context: AdmissionContext,
                    source: str = "") -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    # Warn on the continuous admission that takes the engine past the
    # capacity -- one more query in an engine already past it (and
    # already warned about) is not news, and warning on every later
    # submit drowns the one that is.  Other kinds do not join it.
    resident = context.standing_queries
    if kind == "continuous" and resident == context.lineage_capacity:
        diags.append(Diagnostic(
            "TCQ205",
            f"admitting this query puts {resident + 1} standing queries "
            f"in the shared engine, past the advisory lineage capacity of "
            f"{context.lineage_capacity}; routing stays sublinear in the "
            f"query count, but every lineage bitmap is as wide as the "
            f"query ids, and so is every mask OR that a grouped-filter "
            f"probe, admission or cancel pays",
            source=source,
            hint="partition the workload across servers, or raise "
                 "lineage_capacity if the cost is acceptable; further "
                 "admissions are not warned about again"))
    n_factors = len(predicate.conjuncts())
    if n_factors > context.lineage_capacity:
        diags.append(Diagnostic(
            "TCQ205",
            f"query carries {n_factors} boolean factors; the per-tuple "
            f"ready/done bitmaps grow with factor count and this exceeds "
            f"the advisory capacity of {context.lineage_capacity}",
            source=source))
    return diags


# -- dataflow-graph reachability ----------------------------------------------

def check_flow_graph(nodes: Sequence[str],
                     edges: Iterable[TypingTuple[str, str]],
                     ingresses: Iterable[str],
                     egresses: Iterable[str]) -> List[Diagnostic]:
    """Generic operator-graph reachability: every node must be reachable
    from some ingress and must reach some egress (``TCQ104``)."""
    fwd: Dict[str, Set[str]] = {n: set() for n in nodes}
    rev: Dict[str, Set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        fwd.setdefault(a, set()).add(b)
        rev.setdefault(b, set()).add(a)

    def closure(seeds: Iterable[str], graph: Dict[str, Set[str]]) -> Set[str]:
        reached = set()
        frontier = [s for s in seeds if s in graph]
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            frontier.extend(graph.get(node, ()))
        return reached

    from_ingress = closure(ingresses, fwd)
    to_egress = closure(egresses, rev)
    diags: List[Diagnostic] = []
    for n in nodes:
        if n not in from_ingress:
            diags.append(Diagnostic(
                "TCQ104",
                f"operator {n!r} is unreachable from any ingress; it can "
                f"never receive a tuple",
                hint="wire an input, or remove the operator"))
        elif n not in to_egress:
            diags.append(Diagnostic(
                "TCQ104",
                f"operator {n!r} cannot reach any egress; everything it "
                f"produces is dropped",
                hint="wire its output toward a sink, or remove it"))
    return diags


def check_fjord(fjord: Any) -> List[Diagnostic]:
    """Reachability over a :class:`repro.fjords.fjord.Fjord`'s wiring.

    Ingresses are modules with no input ports or with externally-fed
    queues (no producer inside the Fjord); egresses are modules with no
    output ports or queues no in-Fjord consumer pops."""
    producers: Dict[int, str] = {}
    consumers: Dict[int, str] = {}
    for m in fjord.modules:
        for q in m.outputs:
            if q is not None:
                producers[id(q)] = m.name
        for q in m.inputs:
            if q is not None:
                consumers[id(q)] = m.name
    edges: List[TypingTuple[str, str]] = []
    ingresses: List[str] = []
    egresses: List[str] = []
    for m in fjord.modules:
        ins = [q for q in m.inputs if q is not None]
        outs = [q for q in m.outputs if q is not None]
        # True sources/sinks declare arity 0; a module whose ports exist
        # but are all unbound is dangling, not an ingress/egress.
        if not m.inputs or any(id(q) not in producers for q in ins):
            ingresses.append(m.name)
        if not m.outputs or any(id(q) not in consumers for q in outs):
            egresses.append(m.name)
        for q in outs:
            consumer = consumers.get(id(q))
            if consumer is not None:
                edges.append((m.name, consumer))
    return check_flow_graph([m.name for m in fjord.modules], edges,
                            ingresses, egresses)


# -- entry points --------------------------------------------------------------

def check_spec(spec: QuerySpec, source: Optional[str] = None
               ) -> List[Diagnostic]:
    """Spec-level checks that need no catalog: predicate satisfiability
    and window-clause analysis (against the *unqualified* predicate)."""
    text = spec.text if source is None else source
    diags = check_predicate(spec.predicate, source=text)
    diags.extend(check_windows(spec, source=text))
    return diags


def check_compiled(compiled: Any, catalog: Optional[Catalog] = None,
                   context: Optional[AdmissionContext] = None
                   ) -> DiagnosticReport:
    """The full admission gate over an optimizer
    :class:`~repro.query.optimizer.CompiledQuery`."""
    spec: QuerySpec = compiled.spec
    text = spec.text
    diags = check_predicate(compiled.predicate, source=text)
    diags.extend(check_windows(spec, source=text))
    if compiled.kind == "continuous":
        diags.extend(check_join_graph(compiled.bindings, compiled.predicate,
                                      spec=spec, source=text))
    if context is not None:
        diags.extend(check_admission(compiled.kind, compiled.predicate,
                                     context, source=text))
    return DiagnosticReport(diags)


def check_query(query: Any, catalog: Catalog,
                context: Optional[AdmissionContext] = None
                ) -> DiagnosticReport:
    """Parse + compile + verify; parse/compile failures become a
    ``TCQ100`` diagnostic instead of an exception (CLI ``CHECK``)."""
    from repro.query.optimizer import compile_query
    from repro.query.parser import parse
    text = query if isinstance(query, str) else getattr(query, "text", "")
    try:
        spec = parse(query) if isinstance(query, str) else query
        compiled = compile_query(spec, catalog)
    except ParseError as exc:
        span = (exc.position, exc.position + 1) if exc.position >= 0 \
            else NO_SPAN
        return DiagnosticReport([Diagnostic(
            "TCQ100", f"parse error: {exc}", span=span, source=text)])
    except QueryError as exc:
        return DiagnosticReport([Diagnostic(
            "TCQ100", f"compile error: {exc}", source=text)])
    return check_compiled(compiled, catalog, context)
