"""Tests for grouped filters, including equivalence with the naive
per-query bank over random predicate workloads."""

import random
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouped_filter import (GroupedFilter, NaiveFilterBank,
                                       _RangeBank, mask_of)
from repro.errors import QueryError
from repro.query.predicates import Comparison


class TestGroupedFilter:
    def test_wrong_attribute_rejected(self):
        gf = GroupedFilter("price")
        with pytest.raises(QueryError):
            gf.add(Comparison("volume", ">", 1), 0)

    def test_equality(self):
        gf = GroupedFilter("sym")
        gf.add(Comparison("sym", "==", "MSFT"), 0)
        gf.add(Comparison("sym", "==", "IBM"), 1)
        assert gf.matching("MSFT") == {0}
        assert gf.matching("IBM") == {1}
        assert gf.matching("AAPL") == set()

    def test_inequality(self):
        gf = GroupedFilter("sym")
        gf.add(Comparison("sym", "!=", "MSFT"), 0)
        assert gf.matching("IBM") == {0}
        assert gf.matching("MSFT") == set()

    def test_greater_than_prefix(self):
        gf = GroupedFilter("p")
        for i, threshold in enumerate([10, 20, 30]):
            gf.add(Comparison("p", ">", threshold), i)
        assert gf.matching(25) == {0, 1}
        assert gf.matching(5) == set()
        assert gf.matching(31) == {0, 1, 2}
        assert gf.matching(20) == {0}      # strict

    def test_ge_includes_boundary(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", ">=", 20), 0)
        assert gf.matching(20) == {0}
        assert gf.matching(19.99) == set()

    def test_less_than_suffix(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", "<", 10), 0)
        gf.add(Comparison("p", "<", 20), 1)
        assert gf.matching(15) == {1}
        assert gf.matching(5) == {0, 1}
        assert gf.matching(10) == {1}      # strict

    def test_le_includes_boundary(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", "<=", 10), 0)
        assert gf.matching(10) == {0}
        assert gf.matching(10.01) == set()

    def test_multi_factor_range_per_query(self):
        """A query registering 10 < p < 20 matches only when BOTH factors
        hold."""
        gf = GroupedFilter("p")
        gf.add(Comparison("p", ">", 10), 0)
        gf.add(Comparison("p", "<", 20), 0)
        assert gf.matching(15) == {0}
        assert gf.matching(25) == set()
        assert gf.matching(5) == set()

    def test_remove_query(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", ">", 10), 0)
        gf.add(Comparison("p", "==", 5), 1)
        gf.remove_query(0)
        assert gf.matching(50) == set()
        assert gf.matching(5) == {1}
        assert gf.registered_queries == {1}
        assert gf.registered_mask == 0b10

    def test_remove_unknown_is_noop(self):
        gf = GroupedFilter("p")
        gf.remove_query(99)

    def test_len_counts_factors(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", ">", 10), 0)
        gf.add(Comparison("p", "<", 20), 0)
        assert len(gf) == 2

    def test_registered_mask_incremental(self):
        gf = GroupedFilter("p")
        gf.add(Comparison("p", ">", 1), 3)
        assert gf.registered_mask == 1 << 3

    def test_string_thresholds(self):
        gf = GroupedFilter("sym")
        gf.add(Comparison("sym", ">", "M"), 0)
        assert gf.matching("N") == {0}
        assert gf.matching("A") == set()


class TestNaiveBank:
    def test_same_answers_as_grouped(self):
        gf = GroupedFilter("p")
        bank = NaiveFilterBank("p")
        preds = [(">", 10, 0), ("<", 50, 0), ("==", 30, 1), (">=", 5, 2)]
        for op, value, qid in preds:
            gf.add(Comparison("p", op, value), qid)
            bank.add(Comparison("p", op, value), qid)
        for probe in (0, 5, 10, 29, 30, 31, 50, 100):
            assert gf.matching(probe) == bank.matching(probe)

    def test_comparison_counter(self):
        bank = NaiveFilterBank("p")
        for qid in range(10):
            bank.add(Comparison("p", ">", qid), qid)
        bank.matching(100)
        assert bank.comparisons == 10


#: probe values no threshold orders against: NULL, NaN and a string.
#: Each fails every factor a comparison fails (NaN passes only ``!=``,
#: and so does the string).
_UNORDERED = st.sampled_from([None, float("nan"), "x"])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                          st.integers(-50, 50)),
                min_size=1, max_size=30),
       st.lists(st.one_of(st.integers(-60, 60), _UNORDERED),
                min_size=1, max_size=20))
def test_grouped_filter_matches_naive_bank(factors, probes):
    """Property: for any predicate set (one factor per query) and any
    probe values -- NULL, NaN and unorderable ones included -- the
    indexed filter and the naive bank agree."""
    gf = GroupedFilter("p")
    bank = NaiveFilterBank("p")
    for qid, (op, value) in enumerate(factors):
        gf.add(Comparison("p", op, value), qid)
        bank.add(Comparison("p", op, value), qid)
    for probe in probes:
        assert gf.matching(probe) == bank.matching(probe)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9),
                          st.sampled_from(["<", ">", "==", ">=", "<="]),
                          st.integers(-20, 20)),
                min_size=1, max_size=40),
       st.integers(-25, 25))
def test_multi_factor_queries_match_direct_evaluation(entries, probe):
    """Property: queries registering multiple factors match iff every
    factor holds."""
    from collections import defaultdict
    gf = GroupedFilter("p")
    by_query = defaultdict(list)
    for qid, op, value in entries:
        factor = Comparison("p", op, value)
        gf.add(factor, qid)
        by_query[qid].append(factor)
    expected = {qid for qid, fs in by_query.items()
                if all(f.evaluate(probe) for f in fs)}
    assert gf.matching(probe) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9),
                          st.sampled_from(["<", ">", "==", "!=", ">=", "<="]),
                          st.integers(-20, 20)),
                min_size=1, max_size=30),
       st.lists(st.integers(-25, 25), min_size=0, max_size=20))
def test_matching_batch_equals_per_value(entries, probes):
    """Property: the vectorized probe is exactly
    ``[matching(v) for v in values]`` — including the probes counter."""
    gf = GroupedFilter("p")
    for qid, op, value in entries:
        gf.add(Comparison("p", op, value), qid)
    reference = [gf.matching(v) for v in probes]
    counted = gf.probes
    assert gf.matching_batch(probes) == reference
    assert gf.probes == counted + len(probes)


# -- mask-native index == naive bank under interleaved registration ----------

#: few constants and few queries, so that shared constants, duplicate
#: factors, several factors per query in one bank and contradictory
#: ``==`` pairs all come up; 2 and 2.0 are one constant.
_CONSTANTS = st.one_of(st.integers(-3, 3),
                       st.sampled_from([-1.5, 0.0, 2.0, 2.5]))
_OPERATIONS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 5),
              st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _CONSTANTS),
    st.tuples(st.just("remove"), st.integers(0, 5)),
    st.tuples(st.just("probe"), st.one_of(_CONSTANTS, _UNORDERED)),
    st.tuples(st.just("batch"), st.lists(st.one_of(_CONSTANTS, _UNORDERED),
                                         max_size=5)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPERATIONS, min_size=1, max_size=60))
def test_grouped_filter_equals_naive_bank_under_interleaving(operations):
    """Property: over any interleaving of add / remove_query / matching /
    matching_batch the index and the naive bank hold the same queries,
    give the same answers and count the same probes; ``failing`` is the
    complement of the answer among the registered queries."""
    gf = GroupedFilter("p")
    bank = NaiveFilterBank("p")
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            _, qid, op, constant = operation
            factor = Comparison("p", op, constant)
            gf.add(factor, qid)
            bank.add(factor, qid)
        elif kind == "remove":
            gf.remove_query(operation[1])
            bank.remove_query(operation[1])
        elif kind == "probe":
            expected = bank.matching(operation[1])
            assert gf.matching(operation[1]) == expected
            assert gf.failing(operation[1]) == sum(
                1 << q for q in bank.registered_queries - expected)
            bank.probes += 1
        else:
            assert gf.matching_batch(operation[1]) == \
                [bank.matching(v) for v in operation[1]]
        assert gf.registered_queries == bank.registered_queries
        assert gf.registered_mask == sum(1 << q for q in gf.registered_queries)
        assert gf.probes == bank.probes
    for qid in list(gf.registered_queries):
        gf.remove_query(qid)
    assert len(gf) == 0 and gf.registered_mask == 0
    assert gf.failing(0) == 0


#: up to 300 query ids spread over 1 200 bits, so the derived stride
#: ``min(isqrt(F), width // 256)`` reaches 4, and 50 constants.  A run
#: grows the index (adds outnumber removes three to one, so blocks fill
#: past 2x stride and split) and then shrinks it (the other way round, so
#: blocks thin out, merge and empty, and the stride drifts back).
def _patch_steps(kinds):
    return st.tuples(st.sampled_from(kinds),
                     st.integers(0, 299).map(lambda k: 4 * k),
                     st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                     st.integers(0, 49),
                     st.one_of(st.integers(-1, 50), _UNORDERED))


_GROW, _SHRINK = ["add"] * 3 + ["remove"], ["add"] + ["remove"] * 3


def run_patch_steps(steps):
    """Each step is one add or remove_query and then one probe, on the
    index and the naive bank alike; the blocks are checked after every
    change and the cumulative masks after every probe."""
    gf, bank = GroupedFilter("p"), NaiveFilterBank("p")
    for kind, qid, op, constant, probe in steps:
        if kind == "add":
            gf.add(Comparison("p", op, constant), qid)
            bank.add(Comparison("p", op, constant), qid)
        elif gf.registered_queries:
            # A remove picks a registered query, so that it removes one.
            live = sorted(gf.registered_queries)
            qid = live[qid // 4 % len(live)]
            gf.remove_query(qid)
            bank.remove_query(qid)
        assert_cumulative_masks_exact(gf)
        assert gf.matching(probe) == bank.matching(probe)
        assert_cumulative_masks_exact(gf)
    return gf


@settings(max_examples=100, deadline=None)
@given(st.lists(_patch_steps(_GROW), min_size=25, max_size=200),
       st.lists(_patch_steps(_SHRINK), max_size=200))
def test_patched_index_equals_naive_bank_with_wide_ids(grow, shrink):
    """Property: with a probe between every two changes -- so blocks are
    patched, split, merged and emptied, and rebuilt when the stride
    drifts -- the index answers as the naive bank does and every
    cumulative mask stays exact."""
    run_patch_steps(grow + shrink)


def test_patch_steps_reach_splits_merges_emptied_blocks_and_drift(
        monkeypatch):
    """The step mix above does reach every patch path: a seeded run
    splits, merges and empties blocks, and rebuilds a bank when its
    stride drifts, up past 1 and back down."""
    seen = {"_split": 0, "_merge": 0, "emptied": 0, "strides": []}
    split, merge, discard, rebuild = (
        _RangeBank._split, _RangeBank._merge, _RangeBank.discard,
        _RangeBank._rebuild)

    def spy_split(bank, b):
        seen["_split"] += 1
        split(bank, b)

    def spy_merge(bank, b):
        seen["_merge"] += 1
        merge(bank, b)

    def spy_discard(bank, value, qid):
        blocks, merges = len(bank._masks), seen["_merge"]
        discard(bank, value, qid)
        if len(bank._masks) < blocks and seen["_merge"] == merges:
            seen["emptied"] += 1

    def spy_rebuild(bank, stride):
        seen["strides"].append((id(bank), stride))
        rebuild(bank, stride)

    for name, spy in [("_split", spy_split), ("_merge", spy_merge),
                      ("discard", spy_discard), ("_rebuild", spy_rebuild)]:
        monkeypatch.setattr(_RangeBank, name, spy)
    rng = random.Random(3)
    ops = ["==", "!=", "<", "<=", ">", ">="]
    steps = [(rng.choice(kinds), 4 * rng.randrange(300), rng.choice(ops),
              rng.randrange(50), rng.randrange(-1, 51))
             for kinds in [_GROW] * 400 + [_SHRINK] * 400]
    run_patch_steps(steps)
    assert seen["_split"] and seen["_merge"] and seen["emptied"], seen
    strides = {}
    for bank, stride in seen["strides"]:
        strides.setdefault(bank, []).append(stride)
    drifted = [s for s in strides.values() if len(s) > 1]
    assert any(max(s) > 1 for s in drifted)
    assert any(s[-1] < max(s) for s in drifted)


def test_shared_constant_is_one_entry():
    """Queries registering the same ``(op, constant)`` fold into one
    bank entry; removing one of them leaves the entry to the others."""
    gf = GroupedFilter("p")
    for qid in range(50):
        gf.add(Comparison("p", ">", 10), qid)
    bank = gf._banks[">"]
    assert bank.keys == [10] and bank.factors == 50
    gf.remove_query(7)
    assert bank.keys == [10] and gf.matching(11) == set(range(50)) - {7}
    for qid in gf.registered_queries:
        gf.remove_query(qid)
    assert bank.keys == [] and bank.factors == 0


def assert_cumulative_masks_exact(gf):
    """Every built range bank's blocks tile its entries: each block's
    first threshold, mask and load are its entries' first key, ids and
    count.  Once a probe has settled the bank, its block starts are
    current and ``_cum[b]`` is the OR of every entry on the failing side
    of ``_starts[b]``."""
    for bank in gf._banks.values():
        if bank._cum is None:
            continue
        keys, qids = bank.keys, bank.qids
        starts = list(accumulate(bank._sizes, initial=0))
        assert starts[-1] == len(qids) and all(bank._sizes)
        assert len(bank._cum) == len(starts) == len(bank._masks) + 1
        assert bank._heads == [keys[i] for i in starts[:-1]]
        for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
            assert bank._masks[b] == mask_of(chain.from_iterable(qids[lo:hi]))
            assert bank._loads[b] == sum(map(len, qids[lo:hi]))
        if bank._starts is None:
            continue                    # stale until the next probe
        assert bank._starts == starts
        for b, start in enumerate(starts):
            side = qids[start:] if bank.suffix else qids[:start]
            assert bank._cum[b] == mask_of(chain.from_iterable(side))


def test_registration_patches_cumulative_masks_in_place():
    """Only the first probe builds a bank's cumulative masks; after it,
    ``add`` and ``remove_query`` patch them (``_cum`` stays live) and the
    next probe leaves every ``_cum[b]`` exact, with no further rebuild."""
    gf = GroupedFilter("p")
    for qid in range(100):
        gf.add(Comparison("p", "<", qid), qid)
    bank = gf._banks["<"]
    assert bank._cum is None
    assert gf.matching(98) == {99}
    assert bank._cum is not None and bank.rebuilds == 1
    assert_cumulative_masks_exact(gf)
    changes = [("remove", 99), ("add", 150, 7), ("add", 3, 200),
               ("remove", 0), ("add", 50, 201), ("remove", 7)]
    for change in changes:
        if change[0] == "add":
            gf.add(Comparison("p", "<", change[1]), change[2])
        else:
            gf.remove_query(change[1])
        assert bank._cum is not None
        gf.failing(0)
        assert_cumulative_masks_exact(gf)
    assert bank.rebuilds == 1
    assert gf.matching(98) == set()
    assert gf.matching(2) == set(range(3, 99)) - {7} | {200, 201}


# -- one probe for a column of values ----------------------------------------

_VALUES = st.lists(st.one_of(_CONSTANTS, st.none()), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5),
                          st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                          _CONSTANTS), min_size=1, max_size=30),
       _VALUES)
def test_failing_many_is_failing_value_by_value(entries, values):
    """Property: ``failing_many(vs) == [failing(v) for v in vs]`` --
    ``None``, 2 next to 2.0 and repeated values included -- and agrees
    with the naive bank; repeating the column costs no further mask
    fold, because folds go by distinct probe position, not by row."""
    gf, bank = GroupedFilter("p"), NaiveFilterBank("p")
    for qid, op, constant in entries:
        gf.add(Comparison("p", op, constant), qid)
        bank.add(Comparison("p", op, constant), qid)
    try:
        one_by_one = [gf.failing(v) for v in values]
    except TypeError:
        # ``None`` against a range threshold: no order, as ever.
        with pytest.raises(TypeError):
            gf.failing_many(values)
        return
    counted = gf.probes
    assert gf.failing_many(values) == one_by_one
    assert gf.probes == counted + len(values)
    if None not in values:
        assert one_by_one == [
            sum(1 << q for q in bank.registered_queries - bank.matching(v))
            for v in values]
    ops = gf.mask_ops
    gf.failing_many(values)
    once = gf.mask_ops - ops
    gf.failing_many(values * 3)
    assert gf.mask_ops - ops == 2 * once


def test_a_batch_folds_once_per_distinct_position_not_once_per_row(
        monkeypatch):
    """Count-based guard for the door's batch path: 256 rows against 8
    disjoint band queries land on at most 9 positions of each range
    bank, so a bank folds at most 9 masks, not 256."""
    gf = GroupedFilter("price")
    for qid in range(8):
        gf.add(Comparison("price", ">", 120 * qid), qid)
        gf.add(Comparison("price", "<", 120 * qid + 50), qid)
    prices = [(37 * i) % 1000 for i in range(256)]
    folds = []
    fold = _RangeBank._fold
    monkeypatch.setattr(_RangeBank, "_fold", lambda bank, idx:
                        folds.append(idx) or fold(bank, idx))
    failed = gf.failing_many(prices)
    assert len(folds) <= 2 * 9
    assert len(folds) == sum(
        len({bank.locate(bank.keys, p) for p in prices})
        for bank in gf._banks.values() if bank.keys)
    for price, mask in zip(prices, failed):
        assert mask == sum(1 << qid for qid in range(8)
                           if not 120 * qid < price < 120 * qid + 50)
