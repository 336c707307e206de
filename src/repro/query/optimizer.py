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

from functools import reduce
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as TypingTuple

from repro.core.aggregates import make_aggregate
from repro.core.stem import JoinStep, SteM, join_steps
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
        # Bound at the first window (see _bind).
        self._schemas: Dict[str, Schema] = {}
        self._filters: Dict[str, Optional[Check]] = {}
        self._steps: List[JoinStep] = []
        #: ``SELECT *``: the joined schema its output rows carry.
        self._star: Optional[Schema] = None
        self._project: Optional[TypingTuple[Callable, Schema]] = None
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
        reads ``[lo, hi]``: the same slide, from nothing.
        """
        self._bind()
        for binding, (lo, hi) in bounds.items():
            last = self._last.get(binding)
            fresh = last is None or lo < last[0] or hi < last[1]
            self._slide(binding, None if fresh else lo,
                        scan(binding, lo if fresh else max(lo, last[1] + 1),
                             hi))
            self._last[binding] = (lo, hi)
        return self._output()

    def evaluate(self, window_data: Dict[str, Sequence[Tuple]]) -> List[Row]:
        """filters -> join -> aggregate/distinct/sort -> project over one
        window's tuples per binding, fed to the standing state from
        empty: a pure function of ``window_data``."""
        self._bind()
        self._last.clear()
        for binding in self._names:
            self._slide(binding, None, Rows.of(window_data.get(binding, ())))
        return self._output()

    def _slide(self, binding: str, keep_from: Optional[int],
               rows: Rows) -> None:
        """Forget ``binding``'s rows stamped before ``keep_from`` (all of
        them when None); filter ``rows`` on their values and build the
        survivors in, as tuples of the binding's own schema."""
        stem = self._stems[binding]
        stem.evict_before(keep_from)
        build = stem.build
        for t in rows.tuples(self._schemas[binding], self._filters[binding]):
            build(t)

    def _bind(self) -> None:
        """Bind the body to positions, once: local filters, join steps
        (with their SteMs), projection, group keys, aggregate arguments
        and the ORDER BY key.  A row of binding ``b`` is the values of
        ``b``'s schema; a joined row is those of every binding so far,
        in FROM order."""
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
        # rest run at the join steps (see join_steps).
        factors = self.compiled.predicate.conjuncts()
        local: Dict[str, List[Predicate]] = {b: [] for b in names}
        for factor in factors:
            sources = factor.sources()
            if len(sources) < 2:
                local[min(sources, default=names[0])].append(factor)
        for b, schema in zip(names, schemas):
            self._filters[b] = And(*local[b]).bind(schema.locate) \
                if local[b] else None
        stems = {names[0]: SteM(names[0])}
        steps = join_steps(schemas, factors, lambda b, column: stems.setdefault(
            b, SteM(b, index_columns=[column] if column else ())))

        aggs = [item for item in self.select_items if item.aggregate]
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
                self._star = out
            else:
                self._project = (projection.picker(joined), out)
        if self.order_by is not None:
            column, descending = self.order_by
            pos = out.locate(column)
            if pos is None:
                pos = out.locate(column.split(".", 1)[-1])
            if pos is None:
                raise QueryError(f"ORDER BY {column!r} is not in the output")
            self._order = (pos, descending)
        self._steps, self._stems = steps, stems     # bound

    def _output(self) -> List[Row]:
        """The body over the standing rows.  The leading binding's rows
        probe each step's SteM in FROM order; only a pair that passes is
        read: joined into a tuple for a further step, else made one
        output :class:`Row` straight from the pair's values (whole for
        ``SELECT *``, projected or aggregated otherwise).  A
        single-binding ``SELECT *`` delivers the stored tuples."""
        rows = self._stems[self._names[0]].contents()
        pairs: Optional[List[TypingTuple[Tuple, Tuple]]] = None
        for n, step in enumerate(self._steps, 1):
            pairs = step.join(rows)
            if n < len(self._steps):
                rows = [left.concat(stored) for left, stored in pairs]
        out: List[Row]
        if self._star is not None:
            # A pair with a sampled side is joined, so the result carries
            # the trace its delivery closes.
            schema = self._star
            out = rows if pairs is None else \
                [Row(schema, left.values + stored.values,
                     joined_timestamp(left, stored))
                 if left.trace is None and stored.trace is None
                 else left.concat(stored)
                 for left, stored in pairs]
        elif self._aggregates is not None:
            out = self._aggregate(
                [t.values for t in rows] if pairs is None else
                [left.values + stored.values for left, stored in pairs])
        else:
            pick, schema = self._project
            out = [Row(schema, pick(t.values), t.timestamp)
                   for t in rows] if pairs is None else \
                [Row(schema, pick(left.values + stored.values),
                     joined_timestamp(left, stored))
                 for left, stored in pairs]
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
