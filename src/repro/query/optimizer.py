"""The optimizer: lowers a parsed :class:`QuerySpec` onto the engine.

TelegraphCQ reuses PostgreSQL's parser/optimizer front end but emits
*adaptive* plans (Section 4.2.1).  This optimizer classifies each query
and produces the matching plan object:

* **snapshot**   — FROM static tables, no for-loop: executed once with
  the classic iterator machinery (the Figure 4 code path);
* **continuous** — over streams, no for-loop: registered with the shared
  CACQ engine (selection and join CQs);
* **windowed**   — a for-loop present: compiled to a
  :class:`~repro.core.windows.ForLoopSpec` plus a per-window evaluation
  pipeline (filters → join → aggregate/distinct/sort → project).

Column references are qualified against the FROM bindings here, so the
runtime never guesses; self-join aliases get their own logical sources.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as TypingTuple

from repro.core.aggregates import make_aggregate
from repro.core.stem import SteM
from repro.core.tuples import Column, Schema, Tuple
from repro.core.windows import ForLoopSpec, WindowIs
from repro.errors import QueryError
from repro.query.ast import ForLoopClause, QuerySpec
from repro.query.catalog import Catalog
from repro.query.predicates import (ALWAYS_TRUE, Predicate, decompose, rewrite_columns)

#: Comparison functions for loop conditions.
_CONDITIONS: Dict[str, Callable[[int, int], bool]] = {
    "==": lambda a, b: a == b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class CompiledQuery:
    """The optimizer's output: what kind of plan, and its pieces."""

    def __init__(self, spec: QuerySpec, kind: str,
                 bindings: Sequence[TypingTuple[str, str]],
                 predicate: Predicate):
        self.spec = spec
        self.kind = kind                       # snapshot|continuous|windowed
        self.bindings = list(bindings)         # (binding, object) pairs
        self.predicate = predicate             # fully qualified
        self.window_plan: Optional["WindowedPlan"] = None

    @property
    def footprint(self) -> frozenset:
        return frozenset(b for b, _o in self.bindings)

    def __repr__(self) -> str:
        return f"CompiledQuery({self.kind}, over={self.footprint})"


class WindowedPlan:
    """A for-loop query lowered to spec-builder + per-window pipeline.

    ``build_spec(env)`` late-binds free variables like ``ST`` (the
    query's submission time); ``evaluate(window_data)`` runs the body
    over one window's tuples per binding.
    """

    def __init__(self, compiled: CompiledQuery, clause: ForLoopClause,
                 catalog: Catalog):
        self.compiled = compiled
        self.clause = clause
        self.catalog = catalog
        spec = compiled.spec
        decomposed = decompose(compiled.predicate)
        bindings = compiled.bindings
        binding_names = [b for b, _o in bindings]
        windowed_bindings = set()
        for w in clause.windows:
            if w.stream not in binding_names:
                raise QueryError(
                    f"WindowIs names {w.stream!r}, which is not in FROM "
                    f"{binding_names}")
            windowed_bindings.add(w.stream)
        #: bindings with no WindowIs: "assumed to be a static table by
        #: default" (Section 4.1.1) — the whole table joins each window.
        self.static_bindings = []
        for binding, obj in bindings:
            if binding in windowed_bindings:
                continue
            if catalog.lookup(obj).is_stream:
                raise QueryError(
                    f"stream {obj!r} (as {binding!r}) appears in a "
                    f"windowed query without a WindowIs; unbounded "
                    f"inputs need windows")
            self.static_bindings.append(binding)
        #: per-binding single-variable factors, pre-split.
        self.local_filters: Dict[str, List] = {b: [] for b in binding_names}
        for factor in decomposed.single_variable:
            owner = factor.column.split(".", 1)[0]
            self.local_filters[owner].append(factor)
        self.join_factors = decomposed.equijoins
        #: the join, one step per non-leading binding in FROM order: the
        #: equijoin factors that become evaluable once it has joined.
        self._join_steps: List[TypingTuple[str, List]] = [
            (b, [f for f in self.join_factors if b in f.sources()
                 and f.sources() <= set(binding_names[:i + 1])])
            for i, b in enumerate(binding_names) if i]
        #: binding -> the SteM holding its rows of the current window.
        self._stems: Dict[str, SteM] = {}
        self.residual = decomposed.residual_predicate()
        self.select_items = spec.select_items
        self.distinct = spec.distinct
        self.group_by = tuple(
            self._qualify(col) for col in spec.group_by)
        self.order_by = None
        if spec.order_by is not None:
            self.order_by = (self._qualify(spec.order_by[0]),
                             spec.order_by[1])
        self._out_schema: Optional[Schema] = None

    def _qualify(self, column: str) -> str:
        return self.catalog.resolve_column(
            column, [(b, o) for b, o in self.compiled.bindings])

    # -- window sequence -------------------------------------------------------
    def build_spec(self, env: Optional[Dict[str, int]] = None,
                   max_iterations: int = 100_000) -> ForLoopSpec:
        """Instantiate the ForLoopSpec with ``env`` binding free
        variables (``ST`` etc.)."""
        base_env = dict(env or {})
        clause = self.clause
        var = clause.variable
        init_fn = clause.initial.compile()
        cond_left, cond_op, cond_right = clause.condition
        left_fn = cond_left.compile()
        right_fn = cond_right.compile()
        cmp_fn = _CONDITIONS[cond_op]
        update_op, update_expr = clause.update
        update_fn = update_expr.compile()

        free = (clause.initial.variables()
                | cond_left.variables() | cond_right.variables()
                | update_expr.variables()) - {var}
        missing = free - set(base_env)
        if missing:
            raise QueryError(
                f"window clause has unbound variables {sorted(missing)}; "
                f"pass them in env (ST is bound by the engine at submit)")

        def env_at(t: int) -> Dict[str, int]:
            e = dict(base_env)
            e[var] = t
            return e

        def condition(t: int) -> bool:
            e = env_at(t)
            return cmp_fn(left_fn(e), right_fn(e))

        def change(t: int) -> int:
            e = env_at(t)
            delta = update_fn(e)
            if update_op == "+=":
                return t + delta
            if update_op == "-=":
                return t - delta
            return delta            # plain assignment

        windows = []
        for w in self.clause.windows:
            lf = w.left.compile()
            rf = w.right.compile()
            windows.append(WindowIs(
                w.stream,
                lambda t, _lf=lf: _lf(env_at(t)),
                lambda t, _rf=rf: _rf(env_at(t))))
        return ForLoopSpec(init_fn(base_env), condition, change, windows,
                           max_iterations=max_iterations)

    # -- per-window evaluation ----------------------------------------------------
    def evaluate(self, window_data: Dict[str, List[Tuple]]) -> List[Tuple]:
        """filters -> join -> residual -> aggregate/distinct/sort ->
        project, over one window."""
        bindings = [b for b, _o in self.compiled.bindings]
        filtered: Dict[str, List[Tuple]] = {}
        for b in bindings:
            rows = window_data.get(b, [])
            for factor in self.local_filters.get(b, ()):
                rows = [t for t in rows if factor.matches(t)]
            filtered[b] = rows
        rows = self._join(filtered)
        if self.residual is not ALWAYS_TRUE:
            rows = [t for t in rows if self.residual.matches(t)]
        if any(item.aggregate for item in self.select_items):
            rows = self._aggregate(rows)
        else:
            rows = self._project(rows)
        if self.distinct:
            seen = set()
            unique = []
            for t in rows:
                if t.values not in seen:
                    seen.add(t.values)
                    unique.append(t)
            rows = unique
        if self.order_by is not None:
            column, descending = self.order_by
            key_col = column if rows and rows[0].schema.has_column(column) \
                else column.split(".", 1)[-1]
            rows = sorted(rows, key=lambda t: t[key_col],
                          reverse=descending)
        return rows

    def _join(self, filtered: Dict[str, List[Tuple]]) -> List[Tuple]:
        """Left-deep join in FROM order through SteMs: each non-leading
        binding's rows are built into its SteM (last window's evicted
        first) and the rows joined so far probe it.  Matches come out
        left-major, in build order within a key; a step with no equijoin
        factor probes the SteM's scan path, i.e. a cross product."""
        rows = list(filtered[self.compiled.bindings[0][0]])
        for b, factors in self._join_steps:
            stem = self._stems.get(b)
            if stem is None:
                # Made at the first window, not at compile time and not
                # per window: a SteM is a telemetry series for life.
                stem = self._stems[b] = SteM(b, index_columns=[
                    f.left if f.left.startswith(b + ".") else f.right
                    for f in factors[:1]])
            stem.evict_where(lambda _t: True)
            for t in filtered[b]:
                stem.build(t)
            rows = [match for left in rows
                    for match in stem.probe(left, factors,
                                            dedupe_by_arrival=False)]
        return rows

    def _project(self, rows: List[Tuple]) -> List[Tuple]:
        if not rows:
            return rows
        if len(self.select_items) == 1 and self.select_items[0].is_star \
                and not self.select_items[0].alias:
            return rows
        sample = rows[0]
        columns: List[TypingTuple[str, str]] = []   # (out name, in column)
        for item in self.select_items:
            if item.is_star and item.alias:
                # "c2.*": every column of that binding.
                prefix = item.alias + "."
                for col in sample.schema.column_names():
                    if col.startswith(prefix) or (
                            len(self.compiled.bindings) == 1):
                        columns.append((col, col))
                continue
            if item.is_star:
                for col in sample.schema.column_names():
                    columns.append((col, col))
                continue
            qualified = self._qualify(item.column)
            in_col = qualified if sample.schema.has_column(qualified) \
                else item.column
            columns.append((item.output_name(), in_col))
        schema = Schema([Column(name) for name, _src in columns],
                        sources=sample.schema.sources)
        out = []
        for t in rows:
            out.append(Tuple(schema, tuple(t[src] for _n, src in columns),
                             timestamp=t.timestamp))
        return out

    def _aggregate(self, rows: List[Tuple]) -> List[Tuple]:
        aggs = [item for item in self.select_items if item.aggregate]
        plain = [item for item in self.select_items if not item.aggregate
                 and not item.is_star]
        group_cols = self.group_by or tuple(
            self._qualify(item.column) for item in plain)
        groups: Dict[TypingTuple[Any, ...], List] = {}
        order: List[TypingTuple[Any, ...]] = []
        for t in rows:
            key = tuple(t[c] for c in group_cols)
            state = groups.get(key)
            if state is None:
                state = [make_aggregate(item.aggregate) for item in aggs]
                groups[key] = state
                order.append(key)
            for item, agg in zip(aggs, state):
                if item.column is None:
                    agg.add(1)
                else:
                    agg.add(t[self._qualify(item.column)])
        names = [c.split(".", 1)[-1] for c in group_cols] + \
            [item.output_name() for item in aggs]
        schema = Schema([Column(n) for n in names], sources={"agg"})
        out: List[Tuple] = []
        if not rows and not group_cols:
            # Aggregate of an empty window is a single all-None row
            # (COUNT handles this as 0 via a fresh aggregate).
            state = [make_aggregate(item.aggregate) for item in aggs]
            return [Tuple(schema, tuple(a.result() for a in state))]
        for key in order:
            values = key + tuple(a.result() for a in groups[key])
            out.append(Tuple(schema, values))
        return out


def compile_query(spec: QuerySpec, catalog: Catalog) -> CompiledQuery:
    """Classify and lower one parsed query."""
    bindings: List[TypingTuple[str, str]] = []
    seen = set()
    for source in spec.sources:
        catalog.lookup(source.name)          # existence check
        binding = source.binding
        if binding in seen:
            raise QueryError(
                f"duplicate FROM binding {binding!r}; alias self-joins")
        seen.add(binding)
        bindings.append((binding, source.name))

    def resolve(column: str) -> str:
        return catalog.resolve_column(column, bindings)

    predicate = rewrite_columns(spec.predicate, resolve)

    any_stream = any(catalog.lookup(obj).is_stream for _b, obj in bindings)
    if spec.for_loop is not None:
        compiled = CompiledQuery(spec, "windowed", bindings, predicate)
        compiled.window_plan = WindowedPlan(compiled, spec.for_loop, catalog)
        return compiled
    if any_stream:
        if spec.is_aggregate:
            raise QueryError(
                "aggregates over unbounded streams need a for-loop window "
                "(Section 4.1: blocking operators run over windows)")
        return CompiledQuery(spec, "continuous", bindings, predicate)
    return CompiledQuery(spec, "snapshot", bindings, predicate)
