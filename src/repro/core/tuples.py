"""Tuples, schemas, and lineage — the currency of every dataflow module.

TelegraphCQ routes *individual tuples* between operators, so each tuple
carries a small amount of routing state ("lineage", Section 2.2 and 3.1 of
the paper):

* ``done`` — a bitmap recording which eddy-connected modules have already
  processed the tuple, so the routing policy never revisits a module;
* ``queries`` — a bitmap of continuous queries that are still interested
  in the tuple (CACQ tuple lineage).  A cleared bit means some predicate
  of that query rejected the tuple.

That state lives only while a tuple is routed.  A row that enters
through the door stays a plain value tuple (:class:`Rows`) until
something stores it or routes it on as a :class:`Tuple` — a SteM that
builds it, a join that probes with it, a trace that samples it.  What
leaves for the client is a :class:`Row`: schema, values and timestamp,
with the read API (``row["col"]``, ``get``, ``as_dict``) a
:class:`Tuple` inherits.

Schemas are deliberately lightweight: a named, ordered list of columns.
Joins concatenate schemas; the resulting *composite* tuple remembers the
set of sources it spans, which is what a SteM needs to distinguish build
tuples (``sources == {T}``) from probe tuples (``T not in sources``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple as TypingTuple)

from repro.errors import SchemaError

_tuple_ids = itertools.count()
_NoneType = type(None)


@dataclass(frozen=True)
class Column:
    """A single named, typed column of a schema.

    ``dtype`` is advisory (used for validation when constructing tuples
    with ``Schema.make``); the engine itself is dynamically typed, like
    the paper's enhanced surrogate objects.
    """

    name: str
    dtype: type = object

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype.__name__}"


class Schema:
    """An ordered set of columns belonging to one or more sources.

    A schema over a base stream has a single source (its stream name).
    Joining two tuples produces a schema whose source set is the union;
    column names are qualified (``source.column``) when ambiguous.
    """

    __slots__ = ("columns", "sources", "_index", "name", "_joins")

    def __init__(self, columns: Sequence[Column], sources: Iterable[str] = (),
                 name: str = ""):
        self.columns: TypingTuple[Column, ...] = tuple(columns)
        self.sources: frozenset = frozenset(sources) or (
            frozenset({name}) if name else frozenset())
        self.name = name
        #: ``(right, self.join(right))`` per schema this one was joined
        #: with: see :meth:`join`.
        self._joins: List[TypingTuple["Schema", "Schema"]] = []
        self._index: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if col.name in self._index:
                raise SchemaError(f"duplicate column name {col.name!r}")
            self._index[col.name] = i
        # Allow unqualified access where unambiguous: "price" resolves to
        # "S.price" if exactly one column has that suffix.
        suffix_counts: Dict[str, int] = {}
        for col in self.columns:
            if "." in col.name:
                suffix_counts.setdefault(col.name.rsplit(".", 1)[1], 0)
                suffix_counts[col.name.rsplit(".", 1)[1]] += 1
        for col in self.columns:
            if "." in col.name:
                suffix = col.name.rsplit(".", 1)[1]
                if suffix_counts[suffix] == 1 and suffix not in self._index:
                    self._index[suffix] = self._index[col.name]

    @classmethod
    def of(cls, name: str, *column_names: str) -> "Schema":
        """Convenience constructor: ``Schema.of("S", "a", "b")``."""
        return cls([Column(c) for c in column_names], name=name)

    def index_of(self, column: str) -> int:
        """Return the position of ``column``, raising :class:`SchemaError`
        if the schema does not contain it.

        Qualified names (``S.price``) resolve against a single-source
        schema for stream ``S`` even though its columns are stored
        unqualified, so predicates written against join output also
        apply to base tuples.
        """
        idx = self._index.get(column)
        if idx is not None:
            return idx
        idx = self._qualified_fallback(column)
        if idx is not None:
            return idx
        raise SchemaError(
            f"schema {set(self.sources) or self.name} has no column "
            f"{column!r}; columns are {[c.name for c in self.columns]}")

    def _qualified_fallback(self, column: str) -> Optional[int]:
        if "." not in column or len(self.sources) != 1:
            return None
        prefix, suffix = column.rsplit(".", 1)
        if prefix in self.sources:
            return self._index.get(suffix)
        return None

    def locate(self, column: str) -> Optional[int]:
        """The position of ``column`` (as :meth:`index_of` finds it), or
        None when the schema has no such column."""
        idx = self._index.get(column)
        return idx if idx is not None else self._qualified_fallback(column)

    def has_column(self, column: str) -> bool:
        return self.locate(column) is not None

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def validate(self, rows: Iterable[Sequence[Any]]) -> List[TypingTuple[Any, ...]]:
        """The rows as value tuples, checked against this schema.

        All or nothing: arity and dtypes are checked over the whole
        batch (once per column, not once per value) before it is
        returned; the :class:`SchemaError` names the offending row.
        """
        batch = list(map(tuple, rows))
        ok = set(map(len, batch)) <= {len(self.columns)}
        for pos, col in enumerate(self.columns):
            if ok and col.dtype is not object:
                ok = all(kind is _NoneType or issubclass(kind, col.dtype)
                         for kind in {type(values[pos]) for values in batch})
        if not ok:
            for i, values in enumerate(batch):
                try:
                    self.make(*values)
                except SchemaError as exc:
                    raise SchemaError(f"row {i}: {exc}") from None
        return batch

    def make(self, *values: Any, timestamp: Optional[int] = None) -> "Tuple":
        """Build a tuple of this schema, validating arity and dtypes."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"expected {len(self.columns)} values, got {len(values)}")
        for col, val in zip(self.columns, values):
            if col.dtype is not object and val is not None \
                    and not isinstance(val, col.dtype):
                raise SchemaError(
                    f"column {col.name!r} expects {col.dtype.__name__}, "
                    f"got {type(val).__name__} ({val!r})")
        return Tuple(self, tuple(values), timestamp=timestamp)

    def join(self, other: "Schema") -> "Schema":
        """Concatenate with ``other``.

        Every not-yet-qualified column is qualified with its owning
        source label so join predicates written as ``S.col == T.col``
        always resolve; unqualified access remains available for
        suffixes that stay unambiguous (see ``__init__``).

        This is the one owner of "the schema of a ⋈ b": the result is
        built once per pair of schema *objects* and handed back to every
        later caller.  The memo holds the right-hand schema itself (not
        its ``id``), so a collected schema can never alias a live one.
        """
        for right, joined in self._joins:
            if right is other:
                return joined
        cols: List[Column] = []
        for schema in (self, other):
            label = schema.name or "|".join(sorted(schema.sources)) or "x"
            for col in schema.columns:
                if "." not in col.name:
                    cols.append(Column(f"{label}.{col.name}", col.dtype))
                else:
                    cols.append(col)
        joined = Schema(cols, sources=self.sources | other.sources)
        self._joins.append((other, joined))
        return joined

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns and self.sources == other.sources

    def __hash__(self) -> int:
        return hash((self.columns, self.sources))

    def __repr__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"Schema<{'|'.join(sorted(self.sources))}>({cols})"


class Row:
    """A result: a schema, its values and a timestamp, and nothing else.

    This is what every cursor hands back.  It carries no id and no
    lineage: routing state belongs to a :class:`Tuple` while the eddy
    routes it, and is dead weight once a result leaves for the client.
    The read API lives here, and a :class:`Tuple` inherits it.
    """

    __slots__ = ("schema", "values", "timestamp")

    #: never sampled: a sampled row stays the :class:`Tuple` it was.
    trace = None

    def __init__(self, schema: Schema, values: TypingTuple[Any, ...],
                 timestamp: Optional[int] = None):
        self.schema = schema
        self.values = values
        self.timestamp = timestamp

    def __getitem__(self, column: str) -> Any:
        return self.values[self.schema.index_of(column)]

    def get(self, column: str, default: Any = None) -> Any:
        # Single dict probe on the hot path (predicate evaluation calls
        # this once per tuple per factor); the qualified-name fallback
        # only runs for names the schema does not hold directly.
        idx = self.schema._index.get(column)
        if idx is None:
            idx = self.schema._qualified_fallback(column)
            if idx is None:
                return default
        return self.values[idx]

    @property
    def sources(self) -> frozenset:
        """The set of base streams this (possibly composite) row spans."""
        return self.schema.sources

    def as_dict(self) -> Dict[str, Any]:
        return {c.name: v for c, v in zip(self.schema.columns, self.values)}

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        """Value equality: same schema shape and same values.

        Lineage and tid are deliberately excluded — two rows carrying
        the same data are equal regardless of their routing history, so
        a :class:`Row` and a :class:`Tuple` compare (and hash) alike.
        """
        if not isinstance(other, Row):
            return NotImplemented
        return (self.values == other.values
                and self.schema.sources == other.schema.sources
                and self.timestamp == other.timestamp)

    def __hash__(self) -> int:
        return hash((self.values, self.schema.sources, self.timestamp))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{c.name}={v!r}" for c, v in zip(self.schema.columns, self.values))
        ts = f" @{self.timestamp}" if self.timestamp is not None else ""
        return f"{type(self).__name__}({pairs}{ts})"


class Tuple(Row):
    """A data tuple plus its routing lineage.

    Tuples are *logically* immutable in their values; the lineage fields
    (``done``, ``queries``) mutate as the tuple moves through an eddy,
    exactly as in the paper where "each tuple must have some additional
    state with which it is associated".
    """

    __slots__ = ("done", "queries", "tid", "base_ids", "max_base", "dead",
                 "trace")

    def __init__(self, schema: Schema, values: TypingTuple[Any, ...],
                 timestamp: Optional[int] = None, done: int = 0,
                 queries: int = -1):
        self.schema = schema
        self.values = values
        self.timestamp = timestamp
        self.done = done          # bitmap of eddy modules already visited
        self.queries = queries    # CACQ lineage: -1 == all queries alive
        self.tid = next(_tuple_ids)
        # Sampled observability: None for the untraced majority; set by
        # Tracer.maybe_start at ingress, read (one slot load) at every
        # instrumented hop.
        self.trace = None
        # Join lineage: which base tuples this (possibly composite) tuple
        # was assembled from.  None means "just myself" — kept lazy so
        # base-tuple creation stays cheap.
        self.base_ids: Optional[frozenset] = None
        self.max_base = self.tid
        # Set by a failed filter after the tuple was already built into a
        # SteM: probes skip dead tuples, keeping eddy plans consistent
        # with selection semantics no matter the routing order chosen.
        self.dead = False

    def base_id_set(self) -> frozenset:
        """The set of constituent base tuple ids (for output dedup)."""
        if self.base_ids is None:
            return frozenset((self.tid,))
        return self.base_ids

    def stamp_arrival(self) -> None:
        """Re-date a base tuple built ahead of its turn: SteM probes
        order tuples by ``max_base``, and a tuple pushed by a result
        callback in the middle of a batch did arrive before the rows
        still waiting.  A row the door builds at its turn is already in
        arrival order; only a pre-built one (``push_tuple``, a sampled
        row, a row a dropping shedder classified) needs this."""
        self.max_base = next(_tuple_ids)

    def mark_done(self, module_bit: int) -> None:
        """Record that the eddy module with bitmask ``module_bit`` has
        finished with this tuple."""
        self.done |= module_bit

    def is_done(self, all_bits: int) -> bool:
        """True once every module in ``all_bits`` has handled the tuple."""
        return self.done & all_bits == all_bits

    def kill_query(self, query_bit: int) -> None:
        """CACQ lineage: drop query ``query_bit`` from the interested set."""
        if self.queries == -1:
            raise ValueError(
                "tuple lineage not initialised for per-query tracking; "
                "set t.queries to a concrete bitmap first")
        self.queries &= ~query_bit

    def concat(self, other: "Tuple") -> "Tuple":
        """Concatenate with ``other`` to form a join-result tuple.

        The result timestamp is the max of the inputs (the instant at
        which the match could first exist); lineage bitmaps are
        intersected, because a join output is only alive for queries that
        both inputs are still alive for.
        """
        out = Tuple(self.schema.join(other.schema),
                    self.values + other.values,
                    timestamp=joined_timestamp(self, other))
        out.queries = self.queries & other.queries
        # A join result has already been through every module either of
        # its parents has visited, and descends from both lineages.
        out.done = self.done | other.done
        out.base_ids = self.base_id_set() | other.base_id_set()
        out.max_base = max(self.max_base, other.max_base)
        # A composite continues the trace of a sampled parent (probe
        # side wins when both are sampled, keeping one linear story).
        out.trace = self.trace if self.trace is not None else other.trace
        return out


class Rows:
    """One schema's rows as values: what the door, the historical store
    and CACQ's filter phase carry.

    ``values[i]`` is row ``i``'s value tuple and ``stamps[i]`` its
    timestamp; ``built`` maps a row's index to its :class:`Tuple` when
    the row already exists as one (it arrived built, was sampled for
    tracing or was classified by a shedder).  Such a row is that one
    object everywhere from then on; any other row is built only where a
    query keeps it.

    A ``Rows`` also reads as a sequence of tuples, for consumers written
    against one (a duck-typed shedder, a fjord queue): indexing or
    iterating builds the rows it reaches and remembers them in
    ``built``.
    """

    __slots__ = ("schema", "values", "stamps", "built")

    def __init__(self, schema: Optional[Schema],
                 values: List[TypingTuple[Any, ...]],
                 stamps: Sequence[Optional[int]],
                 built: Optional[Dict[int, Tuple]] = None):
        self.schema = schema
        self.values = values
        self.stamps = stamps
        self.built: Dict[int, Tuple] = {} if built is None else built

    @classmethod
    def of(cls, tuples: Iterable[Tuple],
           schema: Optional[Schema] = None) -> "Rows":
        """Already-built tuples as rows (every one of them ``built``)."""
        rows = list(tuples)
        return cls(rows[0].schema if rows else schema,
                   [t.values for t in rows], [t.timestamp for t in rows],
                   dict(enumerate(rows)))

    def at(self, i: int) -> Tuple:
        """Row ``i`` as a :class:`Tuple`: built on first need, then
        remembered."""
        t = self.built.get(i)
        if t is None:
            t = self.built[i] = Tuple(self.schema, self.values[i],
                                      self.stamps[i])
        return t

    def tuples(self, schema: Optional[Schema] = None,
               keep: Optional[Callable[[TypingTuple[Any, ...]], bool]] = None
               ) -> List[Tuple]:
        """The rows whose values pass ``keep`` (all of them when None),
        as tuples of ``schema`` (default: the batch's).  A row that
        exists as a tuple of that schema is that tuple; the others are
        built for the caller and not remembered."""
        if schema is None:
            schema = self.schema
        values, stamps, built = self.values, self.stamps, self.built
        if not built:
            if keep is None:
                return [Tuple(schema, v, ts) for v, ts in zip(values, stamps)]
            return [Tuple(schema, v, ts) for v, ts in zip(values, stamps)
                    if keep(v)]
        out = []
        for i, (v, ts) in enumerate(zip(values, stamps)):
            if keep is None or keep(v):
                t = built.get(i)
                out.append(t if t is not None and t.schema == schema
                           else Tuple(schema, v, ts))
        return out

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, key: Any) -> Any:
        """``rows[i]`` is :meth:`at`; ``rows[a:b]`` the rows in that
        slice (their built tuples with them)."""
        positions = range(len(self.values))[key]
        if isinstance(key, slice):
            built = self.built
            return Rows(self.schema, self.values[key], self.stamps[key],
                        {j: built[i] for j, i in enumerate(positions)
                         if i in built} if built else {})
        return self.at(positions)

    def __iter__(self) -> Iterator[Tuple]:
        return map(self.at, range(len(self.values)))

    def __repr__(self) -> str:
        name = "|".join(sorted(self.schema.sources)) if self.schema else ""
        return f"Rows<{name}>(n={len(self)}, built={len(self.built)})"


def joined_timestamp(left: Tuple, right: Tuple) -> Optional[int]:
    """The timestamp of ``left ⋈ right``: the later of the two, the
    instant the match could first exist (None when neither has one)."""
    a, b = left.timestamp, right.timestamp
    if a is None or b is None:
        return None if a is None and b is None else max(a or 0, b or 0)
    return a if a >= b else b


class TupleBatch:
    """A columnar batch of same-schema tuples with shared routing lineage.

    Section 4.3 names batching as the remedy for per-tuple routing
    overhead; a :class:`TupleBatch` makes the batch *first-class data*
    (MonetDB/X100-style vectorized execution) instead of merely
    amortizing the routing decision.  Values are stored as parallel
    per-column lists, so predicate kernels scan one Python list instead
    of doing a schema lookup plus attribute chase per tuple.

    Lineage is batch-granular: every row in a batch shares one ``done``
    bitmap and one ``queries`` bitmap, which holds by construction
    because the eddy routes whole batches and partitions them on
    pass/fail.  When row identity matters — the batch was built into a
    SteM, so stored tuples alias the batch's rows — the batch becomes
    *row-backed*: :meth:`materialize` caches row tuples, and lineage
    updates (:meth:`mark_done`, :meth:`mark_dead`) propagate to them so
    the per-tuple and vectorized paths observe identical state.

    ``columns`` is one python list per schema column; batches derived
    by :meth:`take`, :meth:`slice` and :meth:`partition` get fresh
    lists, so a child never shares a column with its parent (an
    all-pass partition hands back the batch itself).
    """

    __slots__ = ("schema", "columns", "timestamps", "done", "queries",
                 "_rows", "traces")

    def __init__(self, schema: Schema, columns: List[List[Any]],
                 timestamps: Optional[List[Optional[int]]] = None,
                 done: int = 0, queries: int = -1,
                 rows: Optional[List["Tuple"]] = None,
                 traces: TypingTuple[Any, ...] = ()):
        self.schema = schema
        self.columns = columns
        if timestamps is None:
            timestamps = [None] * (len(columns[0]) if columns else 0)
        self.timestamps = timestamps
        self.done = done
        self.queries = queries
        self._rows = rows
        # The trace contexts of any sampled rows in this batch (usually
        # empty): batch-level hops fan out to these, so a sampled tuple
        # keeps its story even while travelling vectorized.
        self.traces = traces

    # -- construction ------------------------------------------------------
    @classmethod
    def from_tuples(cls, tuples: Sequence["Tuple"],
                    schema: Optional[Schema] = None,
                    retain_rows: bool = True) -> "TupleBatch":
        """Build a batch from existing tuples.

        All tuples must share one schema and (because lineage is packed
        batch-wide) the same ``done``/``queries`` bitmaps — true for any
        run of freshly ingested base tuples, which is where batches are
        formed.

        By default the batch is *row-backed*: it keeps the source tuples
        so lineage updates stay visible through any outside aliases (a
        SteM that stored them, a client holding a handle).  Ingress
        paths that just minted the tuples and hand over sole ownership
        should pass ``retain_rows=False`` to get a *column-backed* batch
        instead — values are copied out and the row objects dropped, so
        downstream partitions skip all per-row bookkeeping.
        """
        rows = list(tuples)
        if not rows:
            if schema is None:
                raise SchemaError("an empty TupleBatch needs an explicit "
                                  "schema")
            return cls(schema, [[] for _ in schema.columns], [])
        schema = schema if schema is not None else rows[0].schema
        done, queries = rows[0].done, rows[0].queries
        for t in rows:
            if t.done != done or t.queries != queries:
                raise SchemaError(
                    "TupleBatch rows must share one done/queries lineage; "
                    "group divergent tuples into separate batches")
        columns = [list(col) for col in zip(*(t.values for t in rows))]
        if not columns:            # zero-column schema: keep arity
            columns = [[] for _ in schema.columns]
        return cls(schema, columns, [t.timestamp for t in rows],
                   done=done, queries=queries,
                   rows=rows if retain_rows else None,
                   traces=tuple(t.trace for t in rows
                                if t.trace is not None))

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sources(self) -> frozenset:
        return self.schema.sources

    def column(self, name: str) -> List[Any]:
        """The value list for ``name`` (qualified fallback as in
        :meth:`Schema.index_of`)."""
        return self.columns[self.schema.index_of(name)]

    # -- lineage -----------------------------------------------------------
    def mark_done(self, module_bit: int) -> None:
        self.done |= module_bit
        if self._rows is not None:
            # Stored copies in SteMs alias these rows: keep them in sync
            # so composites inherit the same done-bits as per-tuple mode.
            done = self.done
            for r in self._rows:
                r.done = done

    def mark_dead(self) -> None:
        """A failed filter kills the rows; only matters when rows may
        already live inside a SteM (i.e. the batch is row-backed)."""
        if self._rows is not None:
            for r in self._rows:
                r.dead = True

    # -- row access --------------------------------------------------------
    def representative(self) -> "Tuple":
        """One row standing in for the whole batch: routing predicates
        (``applies_to``, ``must_run_first``) depend only on schema,
        sources, and the shared lineage, all uniform across the batch."""
        if self._rows is not None:
            return self._rows[0]
        t = Tuple(self.schema, tuple(col[0] for col in self.columns),
                  timestamp=self.timestamps[0])
        t.done = self.done
        t.queries = self.queries
        return t

    def materialize(self) -> List["Tuple"]:
        """Row tuples for this batch, created lazily and cached (so SteM
        builds and later lineage updates see the same objects)."""
        if self._rows is None:
            schema = self.schema
            done = self.done
            queries = self.queries
            rows: List[Tuple] = []
            for i, values in enumerate(zip(*self.columns)):
                t = Tuple(schema, values, timestamp=self.timestamps[i])
                t.done = done
                t.queries = queries
                rows.append(t)
            self._rows = rows
        return self._rows

    # -- partitioning ------------------------------------------------------
    def _derive(self, columns: List[List[Any]],
                timestamps: List[Optional[int]],
                rows: Optional[List["Tuple"]]) -> "TupleBatch":
        """A batch over a subset of this one's rows, same lineage.

        Row-backed batches subset the cached row objects too: those rows
        may alias SteM-stored tuples, and a slice must keep pointing at
        the SAME objects so lineage updates stay visible everywhere."""
        traces: TypingTuple[Any, ...] = ()
        if rows:
            traces = tuple(t.trace for t in rows if t.trace is not None)
        return TupleBatch(self.schema, columns, timestamps,
                          done=self.done, queries=self.queries, rows=rows,
                          traces=traces)

    def take(self, indexes: Sequence[int]) -> "TupleBatch":
        """A new batch holding the rows at ``indexes`` (in order)."""
        idx = list(indexes)
        rows = self._rows
        return self._derive([[col[i] for i in idx] for col in self.columns],
                            [self.timestamps[i] for i in idx],
                            None if rows is None else [rows[i] for i in idx])

    def slice(self, start: int, stop: int) -> "TupleBatch":
        """Contiguous row range [start, stop)."""
        rows = self._rows
        return self._derive([col[start:stop] for col in self.columns],
                            self.timestamps[start:stop],
                            None if rows is None else rows[start:stop])

    def _select(self, mask: Sequence[Any]) -> "TupleBatch":
        """The rows where ``mask`` is true, in order."""
        compress = itertools.compress
        rows = self._rows
        return self._derive([list(compress(col, mask)) for col in self.columns],
                            list(compress(self.timestamps, mask)),
                            None if rows is None else list(compress(rows, mask)))

    def partition(self, mask: Sequence[Any]) -> \
            "TypingTuple[TupleBatch, TupleBatch]":
        """Split into (pass, fail) batches under a selection vector (one
        truthy/falsy entry per row)."""
        if all(mask):
            return self, TupleBatch.from_tuples((), schema=self.schema)
        return self._select(mask), self._select([not ok for ok in mask])

    def __repr__(self) -> str:
        return (f"TupleBatch<{'|'.join(sorted(self.schema.sources))}>"
                f"(n={len(self)})")


@dataclass(frozen=True)
class Punctuation:
    """Control messages that flow through queues alongside data tuples.

    ``END_OF_STREAM`` tells downstream modules that a source is finished;
    the eddy uses it to shut down connected modules (Section 2.2).
    ``WINDOW_BOUNDARY`` separates the output sets of consecutive windows,
    so a client sees the paper's "sequence of sets" (Section 4.1.1).
    """

    kind: str
    source: str = ""
    payload: Any = None

    END_OF_STREAM = "eos"
    WINDOW_BOUNDARY = "window"

    @classmethod
    def eos(cls, source: str = "") -> "Punctuation":
        return cls(cls.END_OF_STREAM, source)

    @classmethod
    def window_boundary(cls, payload: Any = None) -> "Punctuation":
        return cls(cls.WINDOW_BOUNDARY, payload=payload)


def is_eos(item: Any) -> bool:
    """True when ``item`` is an end-of-stream punctuation."""
    return isinstance(item, Punctuation) and item.kind == Punctuation.END_OF_STREAM
