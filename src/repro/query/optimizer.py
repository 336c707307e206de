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
  pipeline (filters → join → aggregate/distinct/sort → project) over
  standing per-binding state.

Column references are qualified against the FROM bindings here, so the
runtime never guesses; self-join aliases get their own logical sources.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import reduce
from operator import attrgetter, itemgetter
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple as TypingTuple)

from repro.core.aggregates import make_aggregate
from repro.core.stem import JoinStep, SteM, join_route
from repro.core.tuples import Column, Row, Rows, Schema, Tuple, joined_timestamp
from repro.core.windows import ForLoopSpec, WindowIs
from repro.errors import QueryError
from repro.query.ast import ForLoopClause, QuerySpec
from repro.query.catalog import Catalog
from repro.query.predicates import OPS, And, Check, Predicate, rewrite_columns

#: ``scan(binding, lo, hi)``: the rows of the binding's object stamped
#: ``lo..hi``.
Scan = Callable[[str, int, int], Rows]


def for_loop_spec(clause: ForLoopClause, env: Dict[str, int],
                  max_iterations: int = 100_000) -> ForLoopSpec:
    """The :class:`ForLoopSpec` a for-loop clause lowers to, with ``env``
    binding its free variables (``ST`` etc.): the one place a loop's
    initial value, condition, update and window bounds are given their
    meaning.  A free variable ``env`` leaves unbound is refused here."""
    base_env = dict(env)
    var = clause.variable
    cond_left, cond_op, cond_right = clause.condition
    update_op, update_expr = clause.update
    exprs = [clause.initial, cond_left, cond_right, update_expr]
    for w in clause.windows:
        exprs += (w.left, w.right)
    missing = set().union(*(e.variables() for e in exprs)) - {var} \
        - set(base_env)
    if missing:
        raise QueryError(
            f"window clause has unbound variables {sorted(missing)}; "
            f"pass them in env (ST is bound by the engine at submit)")
    left_fn, right_fn = cond_left.compile(), cond_right.compile()
    cmp_fn = OPS[cond_op]
    update_fn = update_expr.compile()

    def env_at(t: int) -> Dict[str, int]:
        e = dict(base_env)
        e[var] = t
        return e

    def condition(t: int) -> bool:
        e = env_at(t)
        return cmp_fn(left_fn(e), right_fn(e))

    def change(t: int) -> int:
        delta = update_fn(env_at(t))
        if update_op == "+=":
            return t + delta
        if update_op == "-=":
            return t - delta
        return delta            # plain assignment

    windows = [WindowIs(w.stream,
                        lambda t, _lf=w.left.compile(): _lf(env_at(t)),
                        lambda t, _rf=w.right.compile(): _rf(env_at(t)))
               for w in clause.windows]
    return ForLoopSpec(clause.initial.compile()(base_env), condition, change,
                       windows, max_iterations=max_iterations)


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


def _picker(positions: Sequence[int]) -> Callable[[Sequence[Any]], TypingTuple]:
    """values -> the tuple of the values at ``positions``."""
    if len(positions) == 1:
        (pos,) = positions
        return lambda values: (values[pos],)
    return itemgetter(*positions) if positions else (lambda values: ())


class Projection:
    """A SELECT list over the rows of one FROM list: the column each
    output column reads (a name the rows' schema locates) and the
    :attr:`schema` of the rows it makes -- for ``SELECT *``, ``joined``
    itself (the bindings ``names`` joined in FROM order).  ``b.*`` reads
    every column of binding ``b``; rows of another column order are
    reordered."""

    __slots__ = ("columns", "schema")

    def __init__(self, items: Sequence[Any], names: Sequence[str],
                 joined: Schema, qualify: Callable[[str], str]):
        if len(items) == 1 and items[0].is_star and not items[0].alias:
            self.columns, self.schema = joined.column_names(), joined
            return
        columns: List[TypingTuple[str, str]] = []   # (out name, column)
        for item in items:
            if item.is_star:
                # "*", or "c2.*": every column of that binding.
                prefix = item.alias + "."
                columns.extend(
                    (col, col) for col in joined.column_names()
                    if not item.alias or len(names) == 1
                    or col.startswith(prefix))
            else:
                columns.append((item.output_name(), qualify(item.column)))
        self.columns = [column for _name, column in columns]
        self.schema = Schema([Column(name) for name, _column in columns],
                             sources=names)

    def picker(self, schema: Schema) -> Callable[[Sequence[Any]], TypingTuple]:
        """The values of a ``schema`` row -> the output values; a column
        ``schema`` lacks is a :class:`QueryError`."""
        positions = []
        for column in self.columns:
            pos = schema.locate(column)
            if pos is None:
                raise QueryError(f"unknown column {column!r}")
            positions.append(pos)
        return _picker(positions)


class WindowedPlan:
    """A for-loop query lowered to spec-builder + per-window pipeline.

    ``build_spec(env)`` late-binds free variables like ``ST`` (the
    query's submission time).  ``window(bounds, scan)`` evaluates the
    body over the next window: each FROM binding keeps its standing rows
    — scanned, filtered and built into the binding's SteM once — and
    slides them to the window's bounds.  ``evaluate(window_data)`` runs
    the same body over one window's tuples per binding, from empty.

    The plan keeps its results from one window to the next, as PSoup
    materialises them (Section 3.2, [CF02]).  A row built into a
    binding's SteM runs that binding's route
    (:func:`~repro.core.stem.join_route`) once and meets only the rows
    built before it, so each match is found once, by its newest row, and
    made into its result object once.  A result is keyed by its rows'
    arrival numbers in FROM order (a row's number is the count of rows
    its SteM built before it).  Each window drops the results holding a
    row some SteM evicted, merges the new ones in by key -- nested-loop
    order -- and runs DISTINCT, ORDER BY and aggregates over that list,
    so every window that holds a match hands back the same object.

    Every column the body reads is bound to a position when the first
    window fires; a plan without a ``clause`` has no WindowIs, so every
    binding is a static table (a snapshot query).
    """

    def __init__(self, compiled: CompiledQuery,
                 clause: Optional[ForLoopClause], catalog: Catalog):
        self.compiled = compiled
        self.clause = clause
        self.catalog = catalog
        spec = compiled.spec
        bindings = compiled.bindings
        binding_names = [b for b, _o in bindings]
        windowed_bindings = set()
        for w in (clause.windows if clause is not None else ()):
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
        self.select_items = spec.select_items
        self.distinct = spec.distinct
        self.group_by = tuple(
            self._qualify(col) for col in spec.group_by)
        self.order_by = None
        if spec.order_by is not None:
            self.order_by = (self._qualify(spec.order_by[0]),
                             spec.order_by[1])
        self._names = binding_names
        #: binding -> the SteM holding its standing rows, and the
        #: (lo, hi) they were last slid to.
        self._stems: Dict[str, SteM] = {}
        self._last: Dict[str, TypingTuple[int, int]] = {}
        #: binding -> id of each row its SteM holds -> the row's arrival
        #: number; and those ids in build order, which eviction follows.
        self._arrival: Dict[str, Dict[int, int]] = {}
        self._arrived: Dict[str, Deque[int]] = {}
        #: the kept results as (key, result object) in key order, and
        #: per binding (FROM order) the arrival number below which its
        #: rows were evicted when they were last dropped.
        self._results: List[TypingTuple[TypingTuple[int, ...], Any]] = []
        self._floors: List[int] = []
        #: result objects made so far: one per match.
        self.results_built = 0
        # Bound at the first window (see _bind).
        self._schemas: Dict[str, Schema] = {}
        self._filters: Dict[str, Optional[Check]] = {}
        #: binding -> its route's join steps, what puts a key in FROM
        #: order and what makes a match's result object.
        self._routes: Dict[str, TypingTuple[List[JoinStep], Callable,
                                            Callable]] = {}
        self._aggregates: Optional[TypingTuple[Optional[Callable],
                                               List, Schema]] = None
        self._order: Optional[TypingTuple[int, bool]] = None

    def _qualify(self, column: str) -> str:
        return self.catalog.resolve_column(
            column, [(b, o) for b, o in self.compiled.bindings])

    # -- window sequence -------------------------------------------------------
    def build_spec(self, env: Optional[Dict[str, int]] = None,
                   max_iterations: int = 100_000) -> ForLoopSpec:
        """Instantiate the ForLoopSpec with ``env`` binding free
        variables (``ST`` etc.): see :func:`for_loop_spec`."""
        return for_loop_spec(self.clause, env or {}, max_iterations)

    # -- per-window evaluation ----------------------------------------------------
    def window(self, bounds: Dict[str, TypingTuple[int, int]],
               scan: Scan) -> List[Row]:
        """The next window: slide every binding's standing rows to its
        ``(lo, hi)`` in ``bounds``, then evaluate the body over them.

        A binding moving forward forgets the rows stamped before ``lo``
        and reads only ``(last hi, hi]`` through ``scan``.  On its first
        window, or when either bound moves backward, it starts empty and
        reads ``[lo, hi]``: the same slide, from nothing.  Every binding
        evicts before any builds, so no new row meets a row this window
        drops.
        """
        self._bind()
        reads = []
        for binding, (lo, hi) in bounds.items():
            last = self._last.get(binding)
            fresh = last is None or lo < last[0] or hi < last[1]
            self._evict(binding, None if fresh else lo)
            reads.append((binding, lo if fresh else max(lo, last[1] + 1), hi))
            self._last[binding] = (lo, hi)
        self._drop_evicted()
        new: List[TypingTuple[TypingTuple[int, ...], Any]] = []
        for binding, lo, hi in reads:
            self._build(binding, scan(binding, lo, hi), new)
        return self._output(new)

    def evaluate(self, window_data: Dict[str, Sequence[Tuple]]) -> List[Row]:
        """filters -> join -> aggregate/distinct/sort -> project over one
        window's tuples per binding, fed to the standing state from
        empty (every row is new): a pure function of ``window_data``."""
        self._bind()
        self._last.clear()
        for binding in self._names:
            self._evict(binding, None)
        self._drop_evicted()
        new: List[TypingTuple[TypingTuple[int, ...], Any]] = []
        for binding in self._names:
            self._build(binding, Rows.of(window_data.get(binding, ())), new)
        return self._output(new)

    def _evict(self, binding: str, keep_from: Optional[int]) -> None:
        """Forget ``binding``'s rows stamped before ``keep_from`` (all of
        them when None), arrival numbers included."""
        evicted = self._stems[binding].evict_before(keep_from)
        arrival, arrived = self._arrival[binding], self._arrived[binding]
        if evicted == len(arrived):
            arrival.clear()
            arrived.clear()
            return
        for _ in range(evicted):
            del arrival[arrived.popleft()]

    def _drop_evicted(self) -> None:
        """Drop the kept results holding an evicted row.  A SteM evicts
        its oldest rows, so a binding's rows numbered below its SteM's
        eviction count are gone; keys sort by the first binding's
        number, so its evicted rows' results are a prefix."""
        floors = [self._stems[b].evictions for b in self._names]
        results, last = self._results, self._floors
        if floors[0] != last[0]:
            del results[:bisect_left(results, ((floors[0],),))]
        for i in range(1, len(floors)):
            if floors[i] != last[i]:
                floor = floors[i]
                results = [r for r in results if r[0][i] >= floor]
        self._results, self._floors = results, floors

    def _build(self, binding: str, rows: Rows,
               new: List[TypingTuple[TypingTuple[int, ...], Any]]) -> None:
        """Build ``rows`` that pass ``binding``'s filter into its SteM, as
        tuples of the binding's own schema, and run the binding's route
        with them: they meet the rows built before them, and each match
        is added to ``new`` as (key, result object)."""
        stem = self._stems[binding]
        built = rows.tuples(self._schemas[binding], self._filters[binding])
        if not built:
            return
        first = stem.builds
        for t in built:
            stem.build(t)
        ids = list(map(id, built))
        numbered = range(first, stem.builds)
        self._arrival[binding].update(zip(ids, numbered))
        self._arrived[binding].extend(ids)
        steps, key_of, make = self._routes[binding]
        if not steps:
            new += zip(zip(numbered), map(make, built))
            return
        # A prober's key so far, by id: its rows' arrival numbers in
        # route order.
        probers = built
        partial = dict(zip(ids, zip(numbered)))
        for step in steps[:-1]:
            numbers = self._arrival[step.stem.source]
            further: List[Tuple] = []
            keys: Dict[int, TypingTuple[int, ...]] = {}
            for left, stored in step.join(probers):
                joined = left.concat(stored)
                further.append(joined)
                keys[id(joined)] = partial[id(left)] + (numbers[id(stored)],)
            if not further:
                return
            probers, partial = further, keys
        numbers = self._arrival[steps[-1].stem.source]
        new += [(key_of(partial[id(left)] + (numbers[id(stored)],)),
                 make(left, stored))
                for left, stored in steps[-1].join(probers)]

    def _bind(self) -> None:
        """Bind the body to positions, once: local filters, each
        binding's route (with the SteMs), the result makers, group keys,
        aggregate arguments and the ORDER BY key.  A row of binding
        ``b`` is the values of ``b``'s schema; a route's match joins the
        bindings in the route's order."""
        if self._stems:
            return
        names = self._names
        schemas = [self.catalog.lookup(obj).schema if b == obj
                   else self.catalog.alias_schema(obj, b)
                   for b, obj in self.compiled.bindings]
        self._schemas = dict(zip(names, schemas))
        joined = reduce(Schema.join, schemas)

        def located(column: str) -> int:
            pos = joined.locate(column)
            if pos is None:
                raise QueryError(f"unknown column {column!r}")
            return pos

        # A factor over one binding filters that binding's rows; the
        # rest run at the join steps (see join_route).
        factors = self.compiled.predicate.conjuncts()
        local: Dict[str, List[Predicate]] = {b: [] for b in names}
        for factor in factors:
            sources = factor.sources()
            if len(sources) < 2:
                local[min(sources, default=names[0])].append(factor)
        for b, schema in zip(names, schemas):
            self._filters[b] = And(*local[b]).bind(schema.locate) \
                if local[b] else None

        aggs = [item for item in self.select_items if item.aggregate]
        projection: Optional[Projection] = None
        if aggs:
            plain = [item for item in self.select_items
                     if not item.aggregate and not item.is_star]
            group_cols = self.group_by or tuple(
                self._qualify(item.column) for item in plain)
            out = Schema([Column(c.split(".", 1)[-1]) for c in group_cols]
                         + [Column(item.output_name()) for item in aggs],
                         sources={"agg"})
            self._aggregates = (
                _picker([located(c) for c in group_cols]) if group_cols
                else None,
                [(item.aggregate, None if item.column is None
                  else located(self._qualify(item.column)))
                 for item in aggs],
                out)
        else:
            projection = Projection(self.select_items, names, joined,
                                    self._qualify)
            out = projection.schema
            if out is joined:
                projection = None           # SELECT *: the joined rows
        if self.order_by is not None:
            column, descending = self.order_by
            pos = out.locate(column)
            if pos is None:
                pos = out.locate(column.split(".", 1)[-1])
            if pos is None:
                raise QueryError(f"ORDER BY {column!r} is not in the output")
            self._order = (pos, descending)

        stems = {b: SteM(b) for b in names}

        def stem_of(binding: str, column: Optional[str]) -> SteM:
            if column is not None:
                stems[binding].add_index(column)
            return stems[binding]

        for b in names:
            steps, route = join_route(b, schemas, factors, stem_of)
            order = [b] + [step.stem.source for step in steps]
            self._routes[b] = (
                steps,
                tuple if order == names else itemgetter(*map(order.index,
                                                              names)),
                self._maker(bool(steps), route, joined, projection))
            self._arrival[b], self._arrived[b] = {}, deque()
        self._floors = [0] * len(names)
        self._stems = stems                 # bound

    def _maker(self, joins: bool, route: Schema, joined: Schema,
               projection: Optional["Projection"]) -> Callable:
        """How a route whose matches are ``route`` rows makes a match's
        result object: a projected :class:`Row`, the values in FROM
        order (``joined``) for aggregates, or for ``SELECT *`` a Row of
        ``joined`` -- a :class:`Tuple` carrying the trace its delivery
        closes when a side is sampled.  Without ``joins`` a match is one
        stored row, and a ``SELECT *`` result is that row itself."""
        if projection is not None:
            pick, schema = projection.picker(route), projection.schema
            if not joins:
                return lambda t: Row(schema, pick(t.values), t.timestamp)
            return lambda left, stored: Row(
                schema, pick(left.values + stored.values),
                joined_timestamp(left, stored))
        if not joins:
            return _values if self._aggregates is not None else _itself
        reorder = tuple if route is joined else itemgetter(
            *map(route.index_of, joined.column_names()))
        if self._aggregates is not None:
            return lambda left, stored: reorder(left.values + stored.values)

        def star(left: Tuple, stored: Tuple) -> Row:
            values = reorder(left.values + stored.values)
            timestamp = joined_timestamp(left, stored)
            trace = left.trace if left.trace is not None else stored.trace
            if trace is None:
                return Row(joined, values, timestamp)
            match = Tuple(joined, values, timestamp)
            match.trace = trace
            return match
        return star

    def _output(self, new: List[TypingTuple[TypingTuple[int, ...], Any]]
                ) -> List[Row]:
        """This window's answer: the kept results with ``new`` merged in
        by key, then aggregated, made distinct and sorted as the query
        asks."""
        results = self._results
        if new:
            self.results_built += len(new)
            new.sort(key=_key)
            later = not results or results[-1][0] < new[0][0]
            results += new
            if not later:
                results.sort(key=_key)
        out: List[Any] = list(map(_result, results))
        if self._aggregates is not None:
            out = self._aggregate(out)
        if self.distinct:
            seen = set()
            unique = []
            for t in out:
                if t.values not in seen:
                    seen.add(t.values)
                    unique.append(t)
            out = unique
        if self._order is not None:
            pos, descending = self._order
            out = sorted(out, key=lambda t: t.values[pos], reverse=descending)
        return out

    def state(self) -> Dict[str, Any]:
        """What the plan holds: rows per binding SteM, results kept,
        and result objects made so far."""
        return {"rows": {b: len(stem) for b, stem in self._stems.items()},
                "results_kept": len(self._results),
                "results_built": self.results_built}

    def _aggregate(self, rows: List[Sequence[Any]]) -> List[Row]:
        """One output row per group (first-seen order) of ``rows``'
        values; with no group columns, one row even for no rows."""
        key_of, specs, schema = self._aggregates
        if key_of is None:
            groups: Dict[TypingTuple[Any, ...], List] = {(): rows}
        else:
            groups = {}
            for values in rows:
                groups.setdefault(key_of(values), []).append(values)
        out: List[Row] = []
        for key, members in groups.items():
            results = []
            for name, pos in specs:
                agg = make_aggregate(name)
                agg.add_many([1] * len(members) if pos is None
                             else [values[pos] for values in members])
                results.append(agg.result())
            out.append(Row(schema, key + tuple(results), None))
        return out


#: a kept result's sort key and object; a lone binding's result for a row.
_key, _result = itemgetter(0), itemgetter(1)
_values = attrgetter("values")


def _itself(t: Tuple) -> Tuple:
    return t


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
        if spec.is_aggregate or spec.distinct or spec.order_by is not None:
            raise QueryError(
                "aggregates, DISTINCT and ORDER BY over unbounded streams "
                "need a for-loop window (Section 4.1: blocking operators "
                "run over windows)")
        return CompiledQuery(spec, "continuous", bindings, predicate)
    return CompiledQuery(spec, "snapshot", bindings, predicate)
