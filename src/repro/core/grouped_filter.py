"""Grouped filters: shared indexes over query predicates (Section 3.1).

"A grouped filter is an index for single-variable boolean factors over
the same attribute."  When a CACQ query arrives it is decomposed into
boolean factors; each single-variable factor ``attr op constant`` is
inserted into the grouped filter for ``attr``.  When a data tuple is
routed through the filter, one probe determines *which queries'* factors
it fails — and the answer is a query bitmap, the same currency the
tuple's lineage is kept in (experiment E4 measures the probe).

The one primitive is :meth:`GroupedFilter.failing_many`: for a column of
values, the bitmap per value of registered queries with at least one
factor on this attribute that the value fails.  A query survives the
filter iff its bit is absent, however many factors it registered, so
nothing is counted per query; and a batch pays for mask arithmetic once
per distinct probe position, not once per row (``failing(v)`` is a
column of one).

Index layout per attribute:

* equality   — hash map constant -> query ids, plus the mask of every
  query holding an ``==`` factor: all of them fail except the ids
  registered at the probed value;
* inequality — hash map constant -> query ids: exactly those fail;
* ``>`` / ``>=`` — a sorted array of *distinct* thresholds, each entry
  holding the ids of every query that registered it: the factors failed
  by value v are a *suffix* (all thresholds at or above v), found by
  bisection;
* ``<`` / ``<=`` — symmetric, a prefix.

A suffix (prefix) of a range bank is answered from cumulative masks kept
at a stride of at most sqrt(factors), so a probe ORs at most one stride
of entries onto one stored mask, and the stored masks take O(F * sqrt(F))
bits.  The first probe builds them.  After that an admission or cancel
patches one block's mask (ORs the query's bit in, or clears it) and the
next probe re-accumulates the cumulative masks from the changed block
outward: O(blocks) ORs, however many changes came before it.  A full
rebuild happens again only when the derived stride has drifted more
than 2x.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, chain
from math import isqrt
from operator import or_
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple as TypingTuple)

from repro.errors import QueryError
from repro.query.predicates import Comparison

#: bit offsets set in each byte value, for :func:`decode_mask`.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def mask_of(qids: Iterable[int]) -> int:
    """The query bitmap with exactly the bits ``qids`` set."""
    mask = 0
    for qid in qids:
        mask |= 1 << qid
    return mask


def decode_mask(mask: int) -> Set[int]:
    """The query ids whose bits are set in ``mask`` (the API-edge
    decoder: engines keep lineage as bitmaps and call this only where a
    ``Set[int]`` is promised)."""
    out: Set[int] = set()
    add = out.add
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for offset in _BYTE_BITS[byte]:
                add(base + offset)
        base += 8
    return out


class _RangeBank:
    """The factors of one range operator: sorted distinct thresholds,
    the query ids registered at each, and strided cumulative masks.

    ``suffix`` says which side of the probe position fails: for ``>`` and
    ``>=`` the thresholds from the position on, for ``<`` and ``<=`` the
    thresholds before it.  ``locate`` is the bisect flavour that puts a
    threshold equal to the value on the right side of that position.

    A ``None``, NaN or a value the thresholds cannot be ordered against
    fails every factor, as :meth:`Comparison.bind`'s check says: it
    probes at the end where every threshold fails.  Bisection sends NaN
    there for ``>`` and ``<`` but to the other end for ``>=`` and
    ``<=``, whose banks are built with ``nan_guard``.

    The entries are cut into blocks, each with its own mask, load
    (factors) and size (entries); ``_cum`` accumulates the block masks
    from the failing end.  Once built, the blocks are patched in place
    by :meth:`add` and :meth:`discard`, which find a block by its first
    threshold (so no other block moves) and shrink ``_settled`` -- the
    number of ``_cum`` entries, counted from the end the accumulation
    starts at, that are still exact.  The next probe re-accumulates only
    the rest and re-derives the block starts from the sizes.
    """

    __slots__ = ("suffix", "locate", "nan_guard", "keys", "qids",
                 "factors", "width",
                 "_stride", "_heads", "_sizes", "_starts", "_masks",
                 "_loads", "_cum", "_settled", "mask_ops", "settle_ops",
                 "rebuilds")

    def __init__(self, suffix: bool,
                 locate: Callable[[List[Any], Any], int],
                 nan_guard: bool = False):
        self.suffix = suffix
        self.locate = locate
        self.nan_guard = nan_guard
        self.keys: List[Any] = []
        self.qids: List[Set[int]] = []
        self.factors = 0
        #: bits in the widest query bitmap this bank has seen.
        self.width = 0
        #: the stride the blocks were last cut at.
        self._stride = 0
        #: block b's first threshold, entries, queries and factors.
        self._heads: List[Any] = []
        self._sizes: List[int] = []
        self._masks: List[int] = []
        self._loads: List[int] = []
        #: block b covers entries ``_starts[b]:_starts[b + 1]``, derived
        #: from ``_sizes`` by the probe; ``None`` after any change.
        self._starts: Optional[List[int]] = None
        #: ``_cum[b]`` = every query in blocks b.. (suffix) or ..b-1
        #: (prefix); ``None`` until a probe builds the blocks.
        self._cum: Optional[List[int]] = None
        self._settled = 0
        #: debug counters: big-int ORs spent folding entries in probes,
        #: ORs spent re-accumulating ``_cum``, and full rebuilds.
        self.mask_ops = 0
        self.settle_ops = 0
        self.rebuilds = 0

    def add(self, value: Any, qid: int) -> bool:
        """Register ``qid`` at threshold ``value``; False if it already
        was.  Queries sharing a constant share the entry."""
        keys = self.keys
        i = bisect_left(keys, value)
        new = i == len(keys) or keys[i] != value
        if new:
            keys.insert(i, value)
            self.qids.insert(i, {qid})
        elif qid in self.qids[i]:
            return False
        else:
            self.qids[i].add(qid)
        self.factors += 1
        self.width = max(self.width, qid + 1)
        if self._cum is None:
            return True
        self._starts = None
        # A threshold below every block's first joins the first block.
        b = bisect_right(self._heads, value) - 1
        if b < 0:
            b = 0
            self._heads[0] = value
        self._sizes[b] += new
        self._masks[b] |= 1 << qid
        self._loads[b] += 1
        self._touch(b)
        if self._loads[b] > 2 * self._stride:
            self._split(b)
        return True

    def discard(self, value: Any, qid: int) -> None:
        """Drop ``qid``'s threshold at ``value``.  The caller drops every
        threshold ``qid`` holds in this bank before the next probe (as
        :meth:`GroupedFilter.remove_query` does), so its bit leaves the
        block's mask outright."""
        keys = self.keys
        i = bisect_left(keys, value)
        entry = self.qids[i]
        entry.discard(qid)
        gone = not entry
        if gone:
            del keys[i]
            del self.qids[i]
        self.factors -= 1
        if self._cum is None:
            return
        self._starts = None
        if not keys:
            self._cum = None        # the next probe starts afresh
            return
        heads, sizes, masks, loads = (self._heads, self._sizes,
                                      self._masks, self._loads)
        b = bisect_right(heads, value) - 1
        sizes[b] -= gone
        loads[b] -= 1
        self._touch(b)
        if not sizes[b]:
            # An emptied block goes; its mask was the only difference
            # between its two neighbouring cumulative masks.
            del heads[b], sizes[b], masks[b], loads[b]
            del self._cum[b if self.suffix else b + 1]
            return
        if gone and heads[b] == value:
            heads[b] = keys[i]
        masks[b] &= ~(1 << qid)
        if b + 1 < len(masks) and loads[b] + loads[b + 1] <= self._stride:
            self._merge(b)
        elif b and loads[b - 1] + loads[b] <= self._stride:
            self._merge(b - 1)

    def _touch(self, b: int) -> None:
        """Block b's mask changed: every cumulative mask that includes
        it is stale."""
        fresh = len(self._masks) - b if self.suffix else b + 1
        if fresh < self._settled:
            self._settled = fresh

    def _split(self, b: int) -> None:
        """Cut block b in two at about half its load; a block of one
        entry stays whole."""
        size = self._sizes[b]
        if size < 2:
            return
        lo = bisect_left(self.keys, self._heads[b])
        qids = self.qids[lo:lo + size]
        half = self._loads[b] // 2
        load = 0
        for cut in range(1, size):
            load += len(qids[cut - 1])
            if load >= half:
                break
        self._heads.insert(b + 1, self.keys[lo + cut])
        self._sizes[b:b + 1] = [cut, size - cut]
        self._masks[b:b + 1] = [mask_of(chain.from_iterable(qids[:cut])),
                                mask_of(chain.from_iterable(qids[cut:]))]
        self._loads[b:b + 1] = [load, self._loads[b] - load]
        self._cum.insert(b + 1, 0)
        self._touch(b)
        self._touch(b + 1)

    def _merge(self, b: int) -> None:
        """Fold block b + 1 into block b."""
        del self._heads[b + 1], self._cum[b + 1]
        self._sizes[b] += self._sizes.pop(b + 1)
        self._masks[b] |= self._masks.pop(b + 1)
        self._loads[b] += self._loads.pop(b + 1)
        self._touch(b)

    def _rebuild(self, stride: int) -> None:
        """Cut the entries into blocks of at most ``stride`` factors (an
        entry shared by more queries than that is a block of its own) and
        mark every cumulative mask stale.

        Runs on the first probe, and again only when the derived stride
        has moved more than 2x from the one the blocks were cut at.
        Between rebuilds :meth:`add` and :meth:`discard` patch the
        blocks: one past 2x the stride is split (an oversized entry stays
        a block of its own), and two neighbours that fit in one stride
        are merged.
        """
        starts = [0]
        masks: List[int] = []
        loads: List[int] = []
        block = load = 0
        for i, qids in enumerate(self.qids):
            if load and load + len(qids) > stride:
                starts.append(i)
                masks.append(block)
                loads.append(load)
                block = load = 0
            block |= mask_of(qids)
            load += len(qids)
        masks.append(block)
        loads.append(load)
        starts.append(len(self.qids))
        self._stride = stride
        self._heads = [self.keys[i] for i in starts[:-1]]
        self._sizes = [hi - lo for lo, hi in zip(starts, starts[1:])]
        self._masks, self._loads = masks, loads
        self._cum = [0] * len(starts)
        self._settled = 1
        self.rebuilds += 1

    def _settle(self) -> None:
        """Bring ``_cum`` and ``_starts`` up to date: one OR per stale
        cumulative mask, from the last exact one outward -- or a rebuild,
        on the first probe or once the stride has drifted.

        The stride is sqrt(factors), which bounds both the entries a
        probe folds and the stored masks (O(F * sqrt(F)) bits) -- or
        less while the masks are narrow: one stored mask per ``stride``
        factors costs ``width / stride`` bits per factor, and letting
        that reach 256 (a fraction of what the entry's own id set
        takes) buys a shorter fold for memory nobody will miss.
        """
        stride = max(1, min(isqrt(self.factors), self.width // 256))
        if self._cum is None or stride > 2 * self._stride \
                or 2 * stride < self._stride:
            self._rebuild(stride)
        cum, masks = self._cum, self._masks
        n = len(masks)
        if self.suffix:
            for b in range(n - self._settled, -1, -1):
                cum[b] = cum[b + 1] | masks[b]
        else:
            for b in range(self._settled, n + 1):
                cum[b] = cum[b - 1] | masks[b - 1]
        self.settle_ops += n + 1 - self._settled
        self._settled = n + 1
        self._starts = list(accumulate(self._sizes, initial=0))

    def failing_many(self, values: Sequence[Any]) -> List[int]:
        """For each value, every query with a threshold in this bank
        that the value fails.  Each value costs one bisection; the
        cumulative mask is folded once per *distinct* probe position in
        the batch, however many rows land on it."""
        if self._starts is None:
            self._settle()
        if len(values) == 1:
            return [self._fold(self._position(values[0]))]
        keys, locate = self.keys, self.locate
        try:
            if self.nan_guard:
                everyone = 0 if self.suffix else len(keys)
                positions = [locate(keys, value) if value == value
                             else everyone for value in values]
            else:
                positions = [locate(keys, value) for value in values]
        except TypeError:       # a NULL, or a value of another type
            positions = list(map(self._position, values))
        folded = {idx: self._fold(idx) for idx in set(positions)}
        return [folded[idx] for idx in positions]

    def _position(self, value: Any) -> int:
        """Where one value probes (see the class docstring)."""
        if value == value:
            try:
                return self.locate(self.keys, value)
            except TypeError:
                pass
        return 0 if self.suffix else len(self.keys)

    def _fold(self, idx: int) -> int:
        """The queries on the failing side of probe position ``idx``:
        one stored cumulative mask plus the entries between the position
        and the block boundary."""
        cum, starts = self._cum, self._starts
        b = bisect_right(starts, idx) - 1
        if self.suffix:
            if starts[b] == idx:
                return cum[b]
            failed = cum[b + 1]
            partial = self.qids[idx:starts[b + 1]]
        else:
            failed = cum[b]
            partial = self.qids[starts[b]:idx]
        ops = 1
        for qids in partial:
            ops += len(qids)
            for qid in qids:
                failed |= 1 << qid
        self.mask_ops += ops
        return failed

    def cumulative_bits(self) -> int:
        return sum(m.bit_length() for m in (self._cum or []) + self._masks)


class GroupedFilter:
    """One grouped filter indexes every registered single-variable factor
    over a single attribute.

    A query may register several factors on the same attribute (e.g.
    ``50 < price AND price < 60``); it satisfies the filter only if
    *all* of them match, i.e. iff :meth:`failing` leaves its bit clear.
    """

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._eq: Dict[Any, Set[int]] = {}
        self._ne: Dict[Any, Set[int]] = {}
        #: queries holding at least one ``==`` factor, and those holding
        #: at least one ``!=`` factor.
        self._eq_all = 0
        self._ne_all = 0
        #: queries holding ``==`` factors on two distinct constants: no
        #: value satisfies both, they fail every probe.
        self._eq_contradictory = 0
        self._banks: Dict[str, _RangeBank] = {
            ">": _RangeBank(True, bisect_left),
            ">=": _RangeBank(True, bisect_right, nan_guard=True),
            "<": _RangeBank(False, bisect_right),
            "<=": _RangeBank(False, bisect_left, nan_guard=True),
        }
        #: the distinct ``(op, constant)`` factors each query registered
        #: here — what :meth:`remove_query` walks.
        self._factors: Dict[int, List[TypingTuple[str, Any]]] = {}
        self._n_factors = 0
        #: bitmap of registered query ids, maintained incrementally so
        #: the CACQ hot path never rebuilds it.
        self.registered_mask = 0
        self.probes = 0
        #: debug counter: big-int ORs spent folding ``==``/``!=`` entries.
        self._point_ops = 0
        #: pass/drop observation (EXPLAIN selectivity): a "pass" is a
        #: probed tuple that stayed alive for at least one query.
        self.seen = 0
        self.passed_count = 0

    # -- registration --------------------------------------------------------
    def add(self, factor: Comparison, query_id: int) -> None:
        """Insert one boolean factor belonging to ``query_id``.  A
        factor the query already registered is logically idempotent, and
        one :meth:`refuse_unordered` refuses is not added."""
        if factor.column != self.attribute:
            raise QueryError(
                f"factor on {factor.column!r} inserted into grouped filter "
                f"for {self.attribute!r}")
        op, value = factor.op, factor.value
        if op == "==" or op == "!=":
            ids = (self._eq if op == "==" else self._ne).setdefault(
                value, set())
            if query_id in ids:
                return
            ids.add(query_id)
            bit = 1 << query_id
            if op == "!=":
                self._ne_all |= bit
            else:
                if self._eq_all & bit:
                    self._eq_contradictory |= bit
                self._eq_all |= bit
        elif op in self._banks:
            try:
                if not self._banks[op].add(value, query_id):
                    return
            except TypeError:   # the bisection failed before adding
                self.refuse_unordered((factor,))
                raise
        else:  # pragma: no cover - Comparison already validates ops
            raise QueryError(f"unsupported operator {op!r}")
        self._factors.setdefault(query_id, []).append((op, value))
        self._n_factors += 1
        self.registered_mask |= 1 << query_id

    def refuse_unordered(self, factors: Iterable[Comparison]) -> None:
        """Raise :class:`QueryError` if a range constant among
        ``factors`` cannot be ordered against its bank's thresholds, or
        those before it among ``factors``: a bank bisects its constants.
        Adds nothing."""
        known: Dict[str, List[Any]] = {}
        for f in factors:
            if f.op in self._banks:
                keys = known.setdefault(f.op, self._banks[f.op].keys[:1])
                try:
                    insort(keys, f.value)
                except TypeError:
                    raise QueryError(
                        f"{f!r}: a {type(f.value).__name__} constant cannot "
                        f"be ordered against the {type(keys[0]).__name__} "
                        f"thresholds of the grouped filter on "
                        f"{self.attribute!r}") from None

    def remove_query(self, query_id: int) -> None:
        """Drop every factor registered by ``query_id`` (query removal
        "on the fly", Section 1.1's shared-processing robustness).  Only
        the query's own entries are visited."""
        factors = self._factors.pop(query_id, None)
        if factors is None:
            return
        for op, value in factors:
            if op == "==" or op == "!=":
                mapping = self._eq if op == "==" else self._ne
                ids = mapping[value]
                ids.discard(query_id)
                if not ids:
                    del mapping[value]
            else:
                self._banks[op].discard(value, query_id)
        keep = ~(1 << query_id)
        self._eq_all &= keep
        self._ne_all &= keep
        self._eq_contradictory &= keep
        self._n_factors -= len(factors)
        self.registered_mask &= keep

    @property
    def registered_queries(self) -> Set[int]:
        return set(self._factors)

    def __len__(self) -> int:
        """Total number of registered (distinct) factors."""
        return self._n_factors

    # -- probing -------------------------------------------------------------
    def failing_many(self, values: Sequence[Any]) -> List[int]:
        """For each value, the bitmap of registered queries with at
        least one factor on this attribute that the value fails; lineage
        survives as ``queries & ~failed``.  One call probes a whole
        column: every value is bisected into each range bank, but masks
        are folded once per distinct probe position (range banks) or
        distinct value (``==`` / ``!=``), not once per row."""
        self.probes += len(values)
        parts: List[List[int]] = []
        for bank in self._banks.values():
            if bank.keys:
                parts.append(bank.failing_many(values))
        if self._eq_all or self._ne:
            point: Dict[Any, int] = {}
            part = []
            for value in values:
                mask = point.get(value)
                if mask is None:
                    mask = point[value] = self._point_failing(value)
                part.append(mask)
            parts.append(part)
        if not parts:
            return [0] * len(values)
        failed = parts[0]
        for part in parts[1:]:
            failed = list(map(or_, failed, part))
        return failed

    def failing(self, value: Any) -> int:
        """:meth:`failing_many` for one value."""
        return self.failing_many((value,))[0]

    def _point_failing(self, value: Any) -> int:
        """The ``==`` / ``!=`` share of a probe; a NULL fails both."""
        if value is None:
            return self._eq_all | self._ne_all
        failed = self._eq_contradictory
        if self._eq_all:
            hit = self._eq.get(value)
            if hit:
                self._point_ops += len(hit)
                failed |= self._eq_all & ~mask_of(hit)
            else:
                failed |= self._eq_all
        if self._ne:
            hit = self._ne.get(value)
            if hit:
                self._point_ops += len(hit)
                failed |= mask_of(hit)
        return failed

    def matching(self, value: Any) -> Set[int]:
        """The ids of queries *all* of whose factors on this attribute
        are satisfied by ``value`` — :meth:`failing`, decoded."""
        return decode_mask(self.registered_mask & ~self.failing(value))

    def matching_batch(self, values: List[Any]) -> List[Set[int]]:
        """``[self.matching(v) for v in values]`` (including the
        ``probes`` counter), for callers holding a column of values."""
        registered = self.registered_mask
        return [decode_mask(registered & ~failed)
                for failed in self.failing_many(values)]

    # -- introspection -------------------------------------------------------
    def observe(self, probed: int, passed: int) -> None:
        """Record the outcome of ``probed`` probes, ``passed`` of which
        left the tuple alive, for the selectivity estimate (the CACQ
        route calls this once per batch)."""
        self.seen += probed
        self.passed_count += passed

    def observed_selectivity(self) -> float:
        """Fraction of probed tuples that survived this filter for at
        least one registered query; 1.0 until any observation exists
        (optimistic prior, matching EddyOperator's convention)."""
        if not self.seen:
            return 1.0
        return self.passed_count / self.seen

    def probe_cost_estimate(self) -> int:
        """Rough comparisons per probe — logarithmic in factors; the
        naive alternative is len(self)."""
        return max(1, (len(self) + 1).bit_length() - 1)

    @property
    def mask_ops(self) -> int:
        """Debug counter: big-int ORs spent inside probes so far (the
        scale test bounds it by c * sqrt(factors) per probe)."""
        return self._point_ops + sum(
            bank.mask_ops for bank in self._banks.values())

    def cumulative_bits(self) -> int:
        """Bits held by the range banks' cumulative and block masks."""
        return sum(bank.cumulative_bits() for bank in self._banks.values())


class NaiveFilterBank:
    """The unshared baseline: evaluate every query's factors one by one.

    Used by experiment E4 and the per-query baseline engine to quantify
    what grouped filters buy.
    """

    def __init__(self, attribute: str):
        self.attribute = attribute
        self._factors: Dict[int, List[Comparison]] = {}
        self.probes = 0
        self.comparisons = 0

    def add(self, factor: Comparison, query_id: int) -> None:
        if factor.column != self.attribute:
            raise QueryError(
                f"factor on {factor.column!r} inserted into bank for "
                f"{self.attribute!r}")
        self._factors.setdefault(query_id, []).append(factor)

    def remove_query(self, query_id: int) -> None:
        self._factors.pop(query_id, None)

    @property
    def registered_queries(self) -> Set[int]:
        return set(self._factors)

    def __len__(self) -> int:
        return sum(len(f) for f in self._factors.values())

    def matching(self, value: Any) -> Set[int]:
        self.probes += 1
        out: Set[int] = set()
        for qid, factors in self._factors.items():
            ok = True
            for f in factors:
                self.comparisons += 1
                if not f.evaluate(value):
                    ok = False
                    break
            if ok:
                out.add(qid)
        return out
