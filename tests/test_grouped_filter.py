"""Tests for grouped filters, including equivalence with the naive
per-query bank over random predicate workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grouped_filter import (GroupedFilter, NaiveFilterBank,
                                       _RangeBank)
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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                          st.integers(-50, 50)),
                min_size=1, max_size=30),
       st.lists(st.integers(-60, 60), min_size=1, max_size=20))
def test_grouped_filter_matches_naive_bank(factors, probes):
    """Property: for any predicate set (one factor per query) and any
    probe values, the indexed filter and the naive bank agree."""
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
    st.tuples(st.just("probe"), st.one_of(_CONSTANTS, st.just("x"))),
    st.tuples(st.just("batch"), st.lists(_CONSTANTS, max_size=5)),
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
    range_factors = {}                  # qid -> live range factors
    for operation in operations:
        kind = operation[0]
        if kind == "add":
            _, qid, op, constant = operation
            factor = Comparison("p", op, constant)
            gf.add(factor, qid)
            bank.add(factor, qid)
            if op not in ("==", "!="):
                range_factors[qid] = range_factors.get(qid, 0) + 1
        elif kind == "remove":
            gf.remove_query(operation[1])
            bank.remove_query(operation[1])
            range_factors.pop(operation[1], None)
        elif kind == "probe" and operation[1] == "x" and range_factors:
            # A value the thresholds cannot be ordered against raises
            # from the bisect, as it always has; the probe still counts.
            with pytest.raises(TypeError):
                gf.matching("x")
            bank.probes += 1
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


def test_registration_does_not_rebuild_cumulative_masks():
    """The cumulative masks are rebuilt by the first probe after a
    registration change, never by ``add`` or ``remove_query``."""
    gf = GroupedFilter("p")
    for qid in range(100):
        gf.add(Comparison("p", "<", qid), qid)
    bank = gf._banks["<"]
    assert bank._cum is None
    assert gf.matching(98) == {99}
    assert bank._cum is not None
    gf.remove_query(99)
    assert bank._cum is None


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
