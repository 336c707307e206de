"""Predicates: boolean factors over tuples.

CACQ (Section 3.1) decomposes each query's WHERE clause into *boolean
factors*.  Single-variable factors (``price > 50``) go into grouped
filters; multi-variable factors (``s.sym == t.sym``) become SteM probe
predicates.  This module provides the predicate algebra, comparison
operators, and the decomposition.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple as TypingTuple, TYPE_CHECKING)

from repro.core.tuples import Row
from repro.errors import QueryError
from repro.monitor import telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tuples import TupleBatch

#: A compiled predicate kernel: batch in, selection vector (one python
#: bool per row) out.
Kernel = Callable[["TupleBatch"], List[bool]]

#: A predicate bound to column positions (see :meth:`Predicate.bind`):
#: a row's bare value tuple in, verdict out.
Check = Callable[[Sequence[Any]], bool]

#: Where a column sits in the value tuples a :data:`Check` reads; None
#: when they hold no such column.
Locate = Callable[[str], Optional[int]]


def _always(values: Sequence[Any]) -> bool:
    return True


def _never(values: Sequence[Any]) -> bool:
    return False


class _KernelTotals:
    """Process-wide kernel counters (the fjords TOTALS pattern): the
    per-batch path bumps plain integers; a global collector publishes
    them only when a telemetry snapshot is taken."""

    __slots__ = ("evals", "rows")

    def __init__(self) -> None:
        self.evals = 0
        self.rows = 0


KERNEL_TOTALS = _KernelTotals()


def _collect_kernel_telemetry(reg: "telemetry.MetricRegistry") -> None:
    reg.counter("tcq_predicate_kernel_evals_total",
                "Compiled predicate kernel invocations (one per batch)"
                ).set_total(KERNEL_TOTALS.evals)
    reg.counter("tcq_predicate_kernel_rows_total",
                "Rows evaluated through compiled predicate kernels"
                ).set_total(KERNEL_TOTALS.rows)


telemetry.register_global_collector(_collect_kernel_telemetry)

#: Comparison operator symbols to functions.
OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The flipped operator for each comparison (used when normalising
#: ``value op column`` to ``column op' value``).
FLIPPED: Dict[str, str] = {
    "==": "==", "=": "=", "!=": "!=", "<>": "<>",
    "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

#: Logical negation of each operator (used by NOT push-down: see
#: :meth:`Predicate.negate`).
NEGATED: Dict[str, str] = {
    "==": "!=", "=": "!=", "!=": "==", "<>": "==",
    "<": ">=", "<=": ">", ">": "<=", ">=": "<",
}


class Predicate:
    """Base class.  Predicates are immutable and hashable so grouped
    filters and the optimizer can dedupe them.

    :meth:`bind` is a predicate's one evaluation body.  Every other way
    to evaluate it -- :meth:`matches`, the kernel :meth:`compile` builds,
    :meth:`Comparison.evaluate` -- applies the check ``bind`` returns,
    so a factor means the same thing wherever it is evaluated.
    """

    #: the schema the kept check was bound for, and that check (see
    #: :meth:`_check`).
    _bound: TypingTuple[Any, Check] = (None, _never)

    def bind(self, locate: Locate) -> Check:
        """This predicate over bare value tuples: every column it reads
        is resolved through ``locate`` here, once, so the check itself
        looks nothing up by name.  A column it cannot place reads as
        missing, and a missing column, a ``None`` (SQL NULL) or a value
        the comparison cannot order fails a comparison."""
        raise NotImplementedError

    def _check(self, schema: Any) -> Check:
        """The check bound for ``schema`` (anything with a ``locate``):
        bound once and kept beside the predicate, so a steady schema is
        never bound again."""
        bound, check = self._bound
        if bound is not schema:
            check = self.bind(schema.locate)
            self._bound = (schema, check)
        return check

    def __getstate__(self) -> Any:
        # The kept check is a closure and does not pickle: a copy binds
        # afresh on first use.
        return None, {name: getattr(self, name)
                      for cls in type(self).__mro__
                      for name in cls.__dict__.get("__slots__", ())}

    def matches(self, t: Row) -> bool:
        """Whether the row satisfies this predicate."""
        return self._check(t.schema)(t.values)

    def columns(self) -> Set[str]:
        """Every column name this predicate reads."""
        raise NotImplementedError

    def sources(self) -> FrozenSet[str]:
        """Base streams referenced via qualified names (``S.price``);
        unqualified columns contribute nothing."""
        return frozenset(
            c.rsplit(".", 1)[0] for c in self.columns() if "." in c)

    def conjuncts(self) -> List["Predicate"]:
        """Flatten a conjunction into boolean factors; non-AND predicates
        return themselves."""
        return [self]

    def compile(self) -> Kernel:
        """A batch kernel: ``kernel(batch) -> selection vector``, the
        check bound for the batch's schema applied to each row of its
        columns (one verdict per row, zero-column batches included)."""
        totals = KERNEL_TOTALS

        def kernel(batch: "TupleBatch") -> List[bool]:
            totals.evals += 1
            totals.rows += len(batch)
            columns = batch.columns
            rows = zip(*columns) if columns else repeat((), len(batch))
            return list(map(self._check(batch.schema), rows))

        return kernel

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return self.negate()

    def negate(self) -> "Predicate":
        """NOT this predicate, in negation-normal form: De Morgan over
        AND/OR down to the comparisons, each of which flips its
        operator.  No negation node exists, so every factor keeps "a
        NULL, NaN or unorderable value fails it" under a NOT too."""
        raise NotImplementedError


class TruePredicate(Predicate):
    """Always matches; the empty WHERE clause."""

    def columns(self) -> Set[str]:
        return set()

    def conjuncts(self) -> List[Predicate]:
        return []

    def bind(self, locate: Locate) -> Check:
        return _always

    def negate(self) -> Predicate:
        return Or()     # the empty disjunction: never holds

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")

    def __repr__(self) -> str:
        return "TRUE"


ALWAYS_TRUE = TruePredicate()


class _OneValue:
    """The schema of a row holding one bare value: whatever column is
    asked for sits at position 0 (see :meth:`Comparison.evaluate`)."""

    @staticmethod
    def locate(column: str) -> int:
        return 0


_ONE_VALUE = _OneValue()


class Comparison(Predicate):
    """A single-variable boolean factor: ``column op constant``.

    These are the predicates grouped filters index (Section 3.1).
    """

    __slots__ = ("column", "op", "value", "_fn", "span")

    def __init__(self, column: str, op: str, value: Any,
                 span: Optional[TypingTuple[int, int]] = None):
        if op not in OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.column = column
        self.op = "==" if op == "=" else ("!=" if op == "<>" else op)
        self.value = value
        #: Character span back into the query text this factor was parsed
        #: from (None when built programmatically); excluded from eq/hash
        #: so grouped filters still dedupe identical factors.
        self.span = span
        # Operator function resolved exactly once (from the normalised
        # symbol); the check :meth:`bind` builds dispatches through it.
        self._fn = OPS[self.op]

    def bind(self, locate: Locate) -> Check:
        pos = locate(self.column)
        if pos is None:
            return _never
        fn, value = self._fn, self.value

        def check(values: Sequence[Any]) -> bool:
            actual = values[pos]
            if actual is None:
                return False
            try:
                return fn(actual, value)
            except TypeError:
                return False

        return check

    def evaluate(self, value: Any) -> bool:
        """The comparison applied to one raw value (the naive filter
        bank's probe): the bound check over a row of that value alone."""
        return self._check(_ONE_VALUE)((value,))

    def columns(self) -> Set[str]:
        return {self.column}

    def negate(self) -> "Comparison":
        return Comparison(self.column, NEGATED[self.op], self.value,
                          span=self.span)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comparison):
            return NotImplemented
        return (self.column, self.op, self.value) == \
            (other.column, other.op, other.value)

    def __hash__(self) -> int:
        return hash((self.column, self.op, self.value))

    def __repr__(self) -> str:
        return f"({self.column} {self.op} {self.value!r})"


class ColumnComparison(Predicate):
    """A multi-variable boolean factor: ``left_column op right_column``.

    Equality column comparisons spanning two sources are join predicates
    and get compiled into SteM probes; inequality ones (band joins,
    ``c2.closingPrice > c1.closingPrice``) are evaluated as post-join
    filters.  A ``None`` (SQL NULL) on either side fails the comparison,
    as it fails a :class:`Comparison`: an equijoin never pairs NULLs.
    """

    __slots__ = ("left", "op", "right", "_fn", "span")

    def __init__(self, left: str, op: str, right: str,
                 span: Optional[TypingTuple[int, int]] = None):
        if op not in OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.left = left
        self.op = "==" if op == "=" else ("!=" if op == "<>" else op)
        self.right = right
        self.span = span
        self._fn = OPS[op]

    def bind(self, locate: Locate) -> Check:
        lpos, rpos = locate(self.left), locate(self.right)
        if lpos is None or rpos is None:
            return _never
        fn = self._fn

        def check(values: Sequence[Any]) -> bool:
            lhs, rhs = values[lpos], values[rpos]
            if lhs is None or rhs is None:
                return False
            try:
                return fn(lhs, rhs)
            except TypeError:
                return False

        return check

    def is_equijoin(self) -> bool:
        return self.op == "==" and len(self.sources()) == 2

    def column_of(self, source: str) -> str:
        """The side of this factor that names ``source``'s column (the
        right side whenever the left does not)."""
        return self.left if self.left.startswith(source + ".") \
            else self.right

    def columns(self) -> Set[str]:
        return {self.left, self.right}

    def negate(self) -> "ColumnComparison":
        return ColumnComparison(self.left, NEGATED[self.op], self.right,
                                span=self.span)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnComparison):
            return NotImplemented
        return (self.left, self.op, self.right) == \
            (other.left, other.op, other.right)

    def __hash__(self) -> int:
        return hash((self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class And(Predicate):
    """Conjunction; flattens nested ANDs into boolean factors."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        flat: List[Predicate] = []
        for p in parts:
            if isinstance(p, And):
                flat.extend(p.parts)
            elif isinstance(p, TruePredicate):
                continue
            else:
                flat.append(p)
        self.parts = tuple(flat)

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for p in self.parts:
            out |= p.columns()
        return out

    def conjuncts(self) -> List[Predicate]:
        out: List[Predicate] = []
        for p in self.parts:
            out.extend(p.conjuncts())
        return out

    def bind(self, locate: Locate) -> Check:
        checks = [p.bind(locate) for p in self.parts]
        if len(checks) == 1:
            return checks[0]
        return lambda values: all(part(values) for part in checks)

    def negate(self) -> Predicate:
        return Or(*(p.negate() for p in self.parts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, And):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction.  Kept whole (not decomposed into factors); CACQ treats
    a disjunctive factor as opaque and evaluates it directly."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Predicate):
        flat: List[Predicate] = []
        for p in parts:
            if isinstance(p, Or):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)

    def bind(self, locate: Locate) -> Check:
        checks = [p.bind(locate) for p in self.parts]
        return lambda values: any(part(values) for part in checks)

    def negate(self) -> Predicate:
        return And(*(p.negate() for p in self.parts))

    def columns(self) -> Set[str]:
        out: Set[str] = set()
        for p in self.parts:
            out |= p.columns()
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Or):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Or", self.parts))

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


def Not(part: Predicate) -> Predicate:
    """NOT ``part``: its :meth:`~Predicate.negate`, so a parsed NOT is
    pushed down to the comparisons as it is built."""
    return part.negate()


def rewrite_columns(predicate: Predicate, resolve) -> Predicate:
    """Rebuild a predicate with every column name mapped through
    ``resolve`` (used to qualify parsed predicates against a FROM list).
    """
    if isinstance(predicate, Comparison):
        return Comparison(resolve(predicate.column), predicate.op,
                          predicate.value, span=predicate.span)
    if isinstance(predicate, ColumnComparison):
        return ColumnComparison(resolve(predicate.left), predicate.op,
                                resolve(predicate.right),
                                span=predicate.span)
    if isinstance(predicate, And):
        return And(*(rewrite_columns(p, resolve) for p in predicate.parts))
    if isinstance(predicate, Or):
        return Or(*(rewrite_columns(p, resolve) for p in predicate.parts))
    if isinstance(predicate, TruePredicate):
        return predicate
    raise QueryError(f"cannot rewrite predicate of type {type(predicate)}")


def decompose(predicate: Predicate) -> "DecomposedPredicate":
    """Split a predicate into the three factor classes CACQ needs.

    Returns single-variable factors (grouped-filter candidates),
    equijoin factors (SteM probes), and a residue of everything else
    (disjunctions, band-join inequalities) evaluated as an opaque
    post-filter.
    """
    singles: List[Comparison] = []
    joins: List[ColumnComparison] = []
    residual: List[Predicate] = []
    for factor in predicate.conjuncts():
        if isinstance(factor, Comparison):
            singles.append(factor)
        elif isinstance(factor, ColumnComparison) and factor.is_equijoin():
            joins.append(factor)
        else:
            residual.append(factor)
    return DecomposedPredicate(singles, joins, residual)


def join_order(start: str, factors: Sequence[Predicate]) -> List[str]:
    """The sources reachable from ``start`` over the equijoin factors
    among ``factors``, breadth first: ``start``, the partners its
    factors name, then theirs, each in factor order.  A join from an
    arriving ``start`` row runs in this order; a source it leaves out
    has no equijoin path to ``start``."""
    pairs = [f.sources() for f in factors
             if isinstance(f, ColumnComparison) and f.is_equijoin()]
    order = [start]
    for source in order:        # grows as partners are reached
        for pair in pairs:
            if source in pair:
                (partner,) = pair - {source}
                if partner not in order:
                    order.append(partner)
    return order


class DecomposedPredicate:
    """The result of :func:`decompose`."""

    __slots__ = ("single_variable", "equijoins", "residual")

    def __init__(self, single_variable: List[Comparison],
                 equijoins: List[ColumnComparison],
                 residual: List[Predicate]):
        self.single_variable = single_variable
        self.equijoins = equijoins
        self.residual = residual

    def residual_predicate(self) -> Predicate:
        if not self.residual:
            return ALWAYS_TRUE
        if len(self.residual) == 1:
            return self.residual[0]
        return And(*self.residual)

    def __repr__(self) -> str:
        return (f"Decomposed(single={self.single_variable}, "
                f"joins={self.equijoins}, residual={self.residual})")
