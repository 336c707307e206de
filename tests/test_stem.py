"""Unit tests for SteMs: build/probe/evict, indexes, cache and
rendezvous variants, and the duplicate-suppression rule."""

import pytest

from repro.core.stem import CacheSteM, RendezvousBuffer, SteM
from repro.core.tuples import Schema
from repro.errors import PlanError
from repro.query.predicates import ColumnComparison

S = Schema.of("S", "k", "x")
T = Schema.of("T", "k", "y")
JOIN = ColumnComparison("S.k", "==", "T.k")


class TestBuildProbe:
    def test_build_wrong_source_rejected(self):
        stem = SteM("S")
        with pytest.raises(PlanError, match="home source"):
            stem.build(T.make(1, 2))

    def test_probe_returns_concatenated_matches(self):
        stem = SteM("S")
        s = S.make(1, 10)
        stem.build(s)
        t = T.make(1, 20)
        matches = stem.probe(t, [JOIN])
        assert len(matches) == 1
        assert matches[0].sources == frozenset({"S", "T"})
        assert matches[0]["S.x"] == 10
        assert matches[0]["T.y"] == 20

    def test_probe_respects_predicate(self):
        stem = SteM("S")
        stem.build(S.make(1, 10))
        assert stem.probe(T.make(2, 20), [JOIN]) == []

    def test_arrival_order_dedup(self):
        """Only earlier-arriving stored tuples match — the later tuple
        of a pair generates it, so each pair appears exactly once."""
        stem_s = SteM("S")
        stem_t = SteM("T")
        s = S.make(1, 0)
        t = T.make(1, 0)        # t arrives after s
        stem_s.build(s)
        stem_t.build(t)
        assert len(stem_s.probe(t, [JOIN])) == 1    # later probes earlier
        assert len(stem_t.probe(s, [JOIN])) == 0    # earlier can't re-pair

    def test_dedup_can_be_disabled(self):
        stem_s = SteM("S")
        s = S.make(1, 0)
        t = T.make(1, 0)
        stem_s.build(s)
        assert len(stem_s.probe(t, [JOIN], dedupe_by_arrival=False)) == 1
        # And symmetric probing without dedup would double-produce:
        stem_t = SteM("T")
        stem_t.build(t)
        assert len(stem_t.probe(s, [JOIN], dedupe_by_arrival=False)) == 1

    def test_dead_tuples_skipped(self):
        stem = SteM("S")
        s = S.make(1, 10)
        stem.build(s)
        s.dead = True
        assert stem.probe(T.make(1, 20), [JOIN]) == []

    def test_probe_match_carries_the_stored_side(self):
        stem = SteM("S")
        s = S.make(1, 10)
        stem.build(s)
        t = T.make(1, 20)
        (match,) = stem.probe(t, [JOIN])
        assert match.base_ids == {s.tid, t.tid}
        assert match.values == t.values + s.values

    def test_probers_of_one_source_with_different_columns(self):
        """The joined schema belongs to the schema pair, not to the
        pair of source sets: a projected and an unprojected S row
        probing one SteM each get their own columns."""
        stem = SteM("T")
        stem.build(T.make(1, 20))
        narrow = Schema.of("S", "k")
        (wide_match,) = stem.probe(S.make(1, 10), [JOIN])
        (narrow_match,) = stem.probe(narrow.make(1), [JOIN])
        assert wide_match.schema.column_names() == \
            ["S.k", "S.x", "T.k", "T.y"]
        assert narrow_match.schema.column_names() == ["S.k", "T.k", "T.y"]
        assert narrow_match["T.y"] == 20
        assert narrow_match.as_dict() == {"S.k": 1, "T.k": 1, "T.y": 20}

    def test_counters(self):
        stem = SteM("S")
        stem.build(S.make(1, 0))
        stem.probe(T.make(1, 0), [JOIN])
        assert stem.builds == 1
        assert stem.probes == 1
        assert stem.matches_out == 1


class TestIndexes:
    def test_index_lookup_equivalent_to_scan(self):
        indexed = SteM("S", index_columns=["S.k"])
        plain = SteM("S")
        rows = [S.make(i % 5, i) for i in range(50)]
        for r in rows:
            indexed.build(S.make(*r.values))
            plain.build(S.make(*r.values))
        probe = T.make(3, 99)
        got_indexed = sorted(m.values for m in indexed.probe(probe, [JOIN]))
        got_plain = sorted(m.values for m in plain.probe(probe, [JOIN]))
        assert got_indexed == got_plain
        assert len(got_indexed) == 10

    def test_add_index_retrofits_existing_content(self):
        stem = SteM("S")
        stem.build(S.make(1, 10))
        stem.add_index("S.k")
        assert len(stem.probe(T.make(1, 0), [JOIN])) == 1

    def test_add_index_idempotent(self):
        stem = SteM("S", index_columns=["S.k"])
        stem.build(S.make(1, 10))
        stem.add_index("S.k")
        assert len(stem.probe(T.make(1, 0), [JOIN])) == 1

    @pytest.mark.parametrize("indexed", [True, False])
    def test_null_and_nan_keys_join_nothing(self, indexed):
        """NULL equals nothing, itself included, and so does NaN — even
        the very same NaN object, which a dict lookup would find."""
        nan = float("nan")
        stem = SteM("S", index_columns=["S.k"] if indexed else [])
        for key in (None, nan, 1):
            stem.build(S.make(key, 0))
        for key in (None, nan):
            assert stem.probe(T.make(key, 0), [JOIN]) == []
        assert len(stem.probe(T.make(1, 0), [JOIN])) == 1
        if indexed:
            assert list(stem._indexes["S.k"]) == [1]

    def test_matching_pairs_and_counters(self):
        stem = SteM("S", index_columns=["S.k"])
        rows = [S.make(k, x) for k, x in ((1, 5), (2, 6), (1, 7))]
        for r in rows:
            stem.build(r)
        probers = [T.make(1, 6), T.make(3, 0), T.make(2, 0)]
        pairs = stem.matching(
            probers, "S.k", [p["k"] for p in probers],
            accept=lambda p, s: s["x"] > p["y"])
        assert pairs == [(probers[0], rows[2]), (probers[2], rows[1])]
        assert (stem.probes, stem.probe_hits, stem.matches_out) == (3, 2, 2)
        # No column: every stored row meets every prober.
        assert len(stem.matching(probers[:1])) == 3


class TestEviction:
    def test_evict_before_timestamp(self):
        stem = SteM("S", index_columns=["S.k"])
        for ts in range(10):
            stem.build(S.make(ts % 2, ts, timestamp=ts))
        evicted = stem.evict_before(5)
        assert evicted == 5
        assert len(stem) == 5
        # Index consistency after eviction:
        matches = stem.probe(T.make(0, 0, timestamp=99), [JOIN])
        assert all(m["S.x"] >= 5 for m in matches)

    def test_evict_before_none_evicts_everything(self):
        stem = SteM("S", index_columns=["S.k"])
        for ts in (1, None, 3):
            stem.build(S.make(1, 0, timestamp=ts))
        assert stem.evict_before(2) == 1          # a stampless row stays
        assert stem.evict_before(None) == 2 and len(stem) == 0
        assert stem.evictions == 3
        assert stem.probe(T.make(1, 0), [JOIN]) == []

    def test_evicting_equal_valued_rows_leaves_the_right_objects(self):
        """Rows equal in every value (and stamp) are distinct objects:
        eviction pops each bucket's oldest, so every index keeps the
        very rows the SteM keeps, in build order."""
        stem = SteM("S", index_columns=["S.k", "S.x"])
        rows = [S.make(1, 7, timestamp=ts) for ts in (1, 1, 1, 2, 2)]
        for r in rows:
            stem.build(r)
        assert stem.evict_before(2) == 3
        for column, key in (("S.k", 1), ("S.x", 7)):
            bucket = stem._indexes[column][key]
            assert len(bucket) == 2
            assert all(a is b for a, b in zip(bucket, rows[3:]))
        assert all(a is b for a, b in zip(stem.contents(), rows[3:]))
        stem.evict_before(None)
        assert stem._indexes == {"S.k": {}, "S.x": {}}

    def test_cache_eviction_pops_each_bucket_head(self):
        cache = CacheSteM("S", capacity=2, index_columns=["S.k"])
        rows = [S.make(1, 7) for _ in range(5)]
        for r in rows:
            cache.build(r)
        bucket = cache._indexes["S.k"][1]
        assert len(bucket) == 2
        assert all(a is b for a, b in zip(bucket, rows[3:]))

    def test_contents_snapshot(self):
        stem = SteM("S")
        s = S.make(1, 2)
        stem.build(s)
        assert stem.contents() == [s]
        assert stem.state_size() == 1


class TestCacheSteM:
    def test_lru_bounded(self):
        cache = CacheSteM("S", capacity=2, index_columns=["S.k"])
        for i in range(4):
            cache.build(S.make(i, i, timestamp=i))
        assert len(cache) == 2
        assert not cache.lookup("S.k", 0)     # evicted
        assert cache.lookup("S.k", 3)

    def test_hit_miss_counters(self):
        cache = CacheSteM("S", capacity=10, index_columns=["S.k"])
        cache.build(S.make(1, 1))
        cache.lookup("S.k", 1)
        cache.lookup("S.k", 2)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lookup_without_index_scans(self):
        cache = CacheSteM("S", capacity=10)
        cache.build(S.make(1, 7))
        assert cache.lookup("k", 1)


class TestRendezvousBuffer:
    def test_hold_and_settle(self):
        buf = RendezvousBuffer("S")
        s = S.make(1, 2)
        buf.hold(s)
        assert buf.pending_count() == 1
        buf.settle(s)
        assert buf.pending_count() == 0

    def test_settle_unknown_is_noop(self):
        buf = RendezvousBuffer("S")
        buf.settle(S.make(1, 2))
        assert buf.pending_count() == 0


class TestBatchBuildProbe:
    """build_batch / probe_batch must be drop-in vectorizations: same
    matches, same counters, one-pass key hashing with an index."""

    def _streams(self, n=20, key_mod=5):
        s_rows = [S.make(i % key_mod, i, timestamp=i) for i in range(n)]
        t_rows = [T.make(i % key_mod, i * 10, timestamp=n + i)
                  for i in range(n)]
        return s_rows, t_rows

    def test_build_batch_equals_per_tuple_builds(self):
        from repro.core.tuples import TupleBatch
        s_rows, _t = self._streams()
        one = SteM("S", index_columns=["S.k"])
        for t in s_rows:
            one.build(t)
        many = SteM("S", index_columns=["S.k"])
        many.build_batch(TupleBatch.from_tuples(s_rows))
        assert many.builds == one.builds == len(s_rows)
        assert many.contents() == one.contents() == s_rows

    def test_build_batch_wrong_source_rejected(self):
        from repro.core.tuples import TupleBatch
        _s, t_rows = self._streams()
        stem = SteM("S")
        with pytest.raises(PlanError, match="home source"):
            stem.build_batch(TupleBatch.from_tuples(t_rows))

    @pytest.mark.parametrize("indexed", [True, False])
    def test_probe_batch_matches_and_counters(self, indexed):
        from repro.core.tuples import TupleBatch
        s_rows, t_rows = self._streams()
        cols = ["S.k"] if indexed else []
        one = SteM("S", index_columns=cols)
        many = SteM("S", index_columns=cols)
        for t in s_rows:
            one.build(t)
            many.build(t)
        expected = []
        per_row_hits = []
        for t in t_rows:
            found = one.probe(t, [JOIN])
            expected.extend(found)
            per_row_hits.append(bool(found))
        matches, hits = many.probe_batch(
            TupleBatch.from_tuples(t_rows), [JOIN])
        key = lambda m: tuple(sorted(m.as_dict().items()))
        assert sorted(map(key, matches)) == sorted(map(key, expected))
        assert hits == per_row_hits
        assert many.probes == one.probes == len(t_rows)
        assert many.matches_out == one.matches_out
        assert many.batch_probes == 1

    def test_probe_batch_skips_dead_and_later_arrivals(self):
        from repro.core.tuples import TupleBatch
        s_rows, t_rows = self._streams(n=6, key_mod=2)
        stem = SteM("S", index_columns=["S.k"])
        for t in s_rows:
            stem.build(t)
        s_rows[0].dead = True
        reference = [len(stem.probe(t, [JOIN], dedupe_by_arrival=True))
                     for t in t_rows]
        stem2 = SteM("S", index_columns=["S.k"])
        s2, t2 = self._streams(n=6, key_mod=2)
        for t in s2:
            stem2.build(t)
        s2[0].dead = True
        matches, hits = stem2.probe_batch(TupleBatch.from_tuples(t2), [JOIN])
        assert len(matches) == sum(reference)
        assert hits == [n > 0 for n in reference]
