"""The query index at 20 000 standing queries, counted in operations.

No wall clock anywhere, so the test cannot flake: the grouped filters'
debug counters say how many big-int operations a probe spent, how many
bits the cumulative masks hold and how often a bank was rebuilt, and
spies say which filters a cancel touched.
"""

import random
from math import isqrt

from repro.core.cacq import CACQEngine
from repro.core.tuples import Schema
from repro.query.predicates import And, Comparison

QUERIES = 20_000
COLUMNS = ("a", "b", "c", "d")


def mixed_predicate(rng):
    """A band, a one-sided range, an equality or an inequality on one
    column, sometimes with a second factor on another; constants come
    from a domain a quarter the query count, so entries are shared."""
    column, other = rng.sample(COLUMNS, 2)
    lo = rng.randrange(QUERIES // 4)
    kind = rng.random()
    if kind < 0.5:
        parts = [Comparison(column, ">", lo),
                 Comparison(column, "<", lo + rng.randrange(1, 400))]
    elif kind < 0.8:
        parts = [Comparison(column, rng.choice([">=", "<=", ">", "<"]), lo)]
    elif kind < 0.95:
        parts = [Comparison(column, "==", lo)]
    else:
        parts = [Comparison(column, "!=", lo)]
    if rng.random() < 0.3:
        parts.append(Comparison(other, rng.choice([">", "<="]),
                                rng.randrange(QUERIES // 4)))
    return And(*parts) if len(parts) > 1 else parts[0]


def test_probe_cost_mask_memory_and_cancel_locality_at_20k_queries():
    rng = random.Random(13)
    engine = CACQEngine()
    engine.register_stream(Schema.of("s", *COLUMNS))
    queries = [engine.add_query(["s"], mixed_predicate(rng))
               for _ in range(QUERIES)]

    # Admission alone builds no cumulative mask.
    assert all(gf.cumulative_bits() == 0 for gf in engine.filters.values())

    gf = engine.filters[("s", "a")]
    factors = len(gf)
    assert factors > QUERIES // 4
    root = isqrt(factors)

    # 1. A probe spends O(sqrt F) big-int operations, not O(F): each of
    # the four range banks folds at most one stride of entries onto one
    # stored mask (the == / != banks fold only the probed constant).
    worst = 0
    for _ in range(200):
        before = gf.mask_ops
        gf.failing(rng.randrange(QUERIES // 4))
        worst = max(worst, gf.mask_ops - before)
    assert 0 < worst <= 6 * root
    assert worst * 20 < factors

    # ... and the answers are the right ones.
    for value in (0, 17, 2500, 4999):
        survivors = gf.matching(value)
        for qid in rng.sample(sorted(gf.registered_queries), 300):
            holds = all(f.evaluate(value)
                        for f in queries[qid].single_factors
                        if f.column == "a")
            assert (qid in survivors) == holds

    # 2. The cumulative and block masks hold O(F * sqrt F) bits, not
    # O(F^2).
    bits = gf.cumulative_bits()
    assert 0 < bits <= 10 * factors * root
    assert bits * 10 < factors * factors

    # 3. Churn patches the index instead of rebuilding it: over 200
    # rounds of one admit, one cancel and one probe, a bank is rebuilt
    # at most twice in all, and a probe re-accumulates at most one
    # cumulative mask per block.
    banks = [bank for bank in gf._banks.values() if bank.keys]
    rebuilds = sum(bank.rebuilds for bank in banks)
    live = list(queries)
    for _ in range(200):
        live.append(engine.add_query(["s"], mixed_predicate(rng)))
        engine.remove_query(live.pop(rng.randrange(len(live))))
        settled = [bank.settle_ops for bank in banks]
        gf.failing(rng.randrange(QUERIES // 4))
        for bank, before in zip(banks, settled):
            assert bank.settle_ops - before <= len(bank._masks)
    assert sum(bank.rebuilds for bank in banks) - rebuilds <= 2
    assert gf.cumulative_bits() <= 10 * len(gf) * isqrt(len(gf))

    # 4. A cancel touches only the cancelled query's own filters, and in
    # them only its own entries.
    touched = []
    for key, other in engine.filters.items():
        def spy(qid, key=key, remove=other.remove_query):
            touched.append(key)
            remove(qid)
        other.remove_query = spy
    victim = next(q for q in live if len(q.filter_keys) == 1)
    (key,) = victim.filter_keys
    bank_sizes = {op: bank.factors
                  for op, bank in engine.filters[key]._banks.items()}
    own = [f.op for f in victim.single_factors]
    engine.remove_query(victim)
    assert touched == [key]
    for op, bank in engine.filters[key]._banks.items():
        assert bank.factors == bank_sizes[op] - own.count(op)
    assert not engine.filters[key].registered_mask & victim.bit
