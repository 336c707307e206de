"""Nested eddies: scoped adaptivity (Section 2.2).

"It is important to note that any number and combination of modules can
be connected to an Eddy — including of course, other Eddies.  Each
individual Eddy provides a scope for adaptivity; modules at the input or
output of an Eddy are not considered in the Eddy's adaptive
decision-making, and thus, do not contribute to the overhead thereof."

:class:`SubEddyOperator` wraps an inner :class:`~repro.core.eddy.Eddy`
as a single operator of an outer eddy.  The outer routing policy sees
one black box (one done-bit, one selectivity estimate); the inner eddy
routes among its own operators with its own policy.  This bounds the
cost of adaptive decisions: an outer eddy with k sub-eddies of m
operators each makes decisions over k candidates, not k*m — the paper's
overhead-scoping argument, measured by experiment X6.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence
from typing import Tuple as TypingTuple

from repro.core.eddy import Eddy, EddyOperator, HandleResult
from repro.core.tuples import Tuple, TupleBatch
from repro.errors import PlanError


class SubEddyOperator(EddyOperator):
    """An inner eddy packaged as one operator of an outer eddy.

    ``scope_sources`` declares which base sources the inner eddy is
    responsible for: the operator applies to tuples spanning any of
    them.  The inner eddy's ``output_sources`` decides what it emits
    back to the outer eddy (filtered tuples, or composite join results).

    Tuples crossing the boundary get a *fresh* done-bitmap scope: the
    outer bits are stashed and restored around the inner routing loop,
    so the two eddies' bitmaps can never collide even though both number
    their operators from bit 0.
    """

    def __init__(self, inner: Eddy, name: str = "",
                 scope_sources: Optional[Iterable[str]] = None):
        super().__init__(name or f"sub[{inner.name}]")
        self.inner = inner
        self.scope: FrozenSet[str] = frozenset(
            scope_sources if scope_sources is not None
            else inner.output_sources)
        if not self.scope:
            raise PlanError("a sub-eddy needs a non-empty source scope")

    def applies_to(self, t: Tuple) -> bool:
        return bool(self.scope & t.sources)

    def handle(self, t: Tuple) -> HandleResult:
        outer_done = t.done
        t.done = 0
        try:
            outputs = self.inner.process(t, 0)
        finally:
            t.done = outer_done
        # The inner eddy emits completed tuples.  The input itself
        # continues in the outer scope only if the inner eddy emitted
        # it; new tuples (join composites) enter the outer scope with a
        # fresh bitmap — the outer eddy fixes their SteM bits up.
        emitted_self = any(out is t for out in outputs)
        extra = [out for out in outputs if out is not t]
        for out in extra:
            out.done = 0
        self._observe(emitted_self or bool(extra))
        return HandleResult(outputs=extra, passed=emitted_self)

    def handle_batch(self, batch: TupleBatch) -> \
            "TypingTuple[Optional[TupleBatch], Sequence[Tuple]]":
        """Vectorized boundary crossing: the whole batch gets a fresh
        done-bitmap scope and rides the inner eddy's own batch router.

        Semantics match :meth:`handle` row by row: survivors are the
        input rows the inner eddy emitted; composites enter the outer
        scope with a cleared bitmap; selectivity observes one outcome
        per input row (emitted, or credited with a composite carrying
        its base ids)."""
        # Scope save/restore needs the aliased Tuple objects: the inner
        # eddy mutates their done bits in place.
        rows = batch.materialize()  # tcq: allow[TCQ501] inner eddy mutates rows
        outer_done = [t.done for t in rows]
        for t in rows:
            t.done = 0
        try:
            emitted = self.inner.process_batch(batch, 0)
        finally:
            for t, done in zip(rows, outer_done):
                t.done = done
        flat: List[Tuple] = []
        for item in emitted:
            if isinstance(item, TupleBatch):
                # Identity bookkeeping below compares Tuple objects.
                flat.extend(
                    item.materialize())  # tcq: allow[TCQ501] identity bookkeeping
            else:
                flat.append(item)
        row_ids = {id(t) for t in rows}
        emitted_ids = {id(t) for t in flat}
        extra = [out for out in flat if id(out) not in row_ids]
        for out in extra:
            out.done = 0
        extra_bases = [out.base_id_set() for out in extra]
        mask = []
        for t in rows:
            passed = id(t) in emitted_ids
            if not passed and extra_bases:
                base = t.base_id_set()
                passed = any(base <= b for b in extra_bases)
            mask.append(passed)
        self._observe_batch(mask)
        survivors = [t for t in rows if id(t) in emitted_ids]
        if len(survivors) == len(rows):
            return batch, extra
        if not survivors:
            return None, extra
        return TupleBatch.from_tuples(survivors, schema=batch.schema), extra

    def decision_count(self) -> int:
        return self.inner.routing_decisions


def nested_filter_scope(predicates: Sequence, source: str,
                        policy=None, name: str = "") -> SubEddyOperator:
    """Convenience: bundle a set of same-source filters into one scoped
    sub-eddy (the common case: per-source filter groups under an outer
    join eddy)."""
    from repro.core.eddy import FilterOperator
    ops = [FilterOperator(p, name=f"{source}-f{i}")
           for i, p in enumerate(predicates)]
    inner = Eddy(ops, output_sources={source}, policy=policy,
                 name=name or f"inner[{source}]")
    return SubEddyOperator(inner, scope_sources={source})
