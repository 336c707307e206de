"""Tests for the automatic adaptivity controller (§4.3)."""

import pytest

from repro.core.adaptivity import AdaptivityController
from repro.core.eddy import Eddy, FilterOperator
from repro.core.routing import BatchingDirective, LotteryPolicy
from repro.core.tuples import Schema
from repro.errors import PlanError
from repro.ingress.generators import DriftingSelectivityGenerator
from repro.query.predicates import Comparison

S = Schema.of("drift", "a", "b")


def make_eddy(batch=1, **knobs):
    ops = [FilterOperator(Comparison("a", "==", 1), name="fa"),
           FilterOperator(Comparison("b", "==", 1), name="fb")]
    return Eddy(ops, output_sources={"drift"},
                policy=LotteryPolicy(seed=1),
                batching=BatchingDirective(batch, **knobs))


class TestController:
    def test_grows_batch_on_stable_stream(self):
        eddy = make_eddy(batch=1)
        controller = AdaptivityController(eddy, check_every=100,
                                          max_batch=64)
        rows = DriftingSelectivityGenerator(seed=2, flip_at=0).take(2000)
        for t in rows:
            eddy.process(t, 0)
            controller.after_tuple()
        assert controller.current_batch == 64

    def test_shrinks_batch_on_drift(self):
        eddy = make_eddy(batch=64)
        controller = AdaptivityController(eddy, check_every=100,
                                          min_batch=1, max_batch=64,
                                          drift_threshold=0.12)
        # stable prefix lets the controller settle, then a hard flip
        rows = DriftingSelectivityGenerator(seed=3, flip_at=600).take(1200)
        batches = []
        for t in rows:
            eddy.process(t, 0)
            adjusted = controller.after_tuple()
            if adjusted is not None:
                batches.append((eddy.tuples_routed, adjusted))
        # the flip (at tuple 600) must trigger shrinking; the EWMA
        # warm-up may cause one early transient adjustment, so look
        # specifically for post-flip shrinks
        post_flip_shrinks = [b for at, b in batches
                             if at > 600 and b < 64]
        assert post_flip_shrinks
        assert min(post_flip_shrinks) <= 16

    def test_recovers_after_drift_passes(self):
        eddy = make_eddy(batch=1)
        controller = AdaptivityController(eddy, check_every=100,
                                          max_batch=32,
                                          drift_threshold=0.12)
        rows = DriftingSelectivityGenerator(seed=4, flip_at=500).take(4000)
        min_seen = 32
        for t in rows:
            eddy.process(t, 0)
            controller.after_tuple()
            min_seen = min(min_seen, controller.current_batch)
        # the flip pushed the knob down; the long stable tail grew it
        # back up toward the cap
        assert min_seen <= 8
        assert controller.current_batch >= 16

    def test_adjustment_invalidates_route_cache(self):
        eddy = make_eddy(batch=8)
        eddy._route_cache[(0, frozenset({"drift"}))] = ({"fa"}, 5)
        controller = AdaptivityController(eddy, check_every=1,
                                          drift_threshold=0.0)
        controller.after_tuple()      # first check only samples
        eddy.operators[0]._ewma_selectivity = 0.0   # force "drift"
        controller.after_tuple()
        assert eddy._route_cache == {}

    def test_adjustment_keeps_fix_sequence_and_vectorize(self):
        """Turning the batching knob leaves the other two §4.3 knobs
        where the plan set them, shrinking and growing alike."""
        eddy = make_eddy(batch=8, fix_sequence=True, vectorize=True)
        controller = AdaptivityController(eddy, check_every=1,
                                          drift_threshold=0.2)
        controller.after_tuple()      # first check only samples
        eddy.operators[0]._ewma_selectivity = 0.0   # drift 1.0: shrink
        assert controller.after_tuple() == 2
        assert (eddy.batching.fix_sequence, eddy.batching.vectorize) == \
            (True, True)
        assert controller.after_tuple() == 8          # no drift: grow
        assert (eddy.batching.batch_size, eddy.batching.fix_sequence,
                eddy.batching.vectorize) == (8, True, True)

    def test_drives_like_a_plain_eddy_with_identical_answers(self):
        rows = DriftingSelectivityGenerator(seed=5, flip_at=700).take(2000)
        plain = make_eddy(batch=1)
        plain_out = sum(len(plain.process(t, 0)) for t in rows)
        rows2 = DriftingSelectivityGenerator(seed=5, flip_at=700).take(2000)
        eddy = make_eddy(batch=1)
        controller = AdaptivityController(eddy, check_every=100)
        auto_out = 0
        for t in rows2:
            auto_out += len(eddy.process(t, 0))
            controller.after_tuple()
        assert auto_out == plain_out
        assert controller.checks > 0

    def test_validation(self):
        eddy = make_eddy()
        with pytest.raises(PlanError):
            AdaptivityController(eddy, min_batch=0)
        with pytest.raises(PlanError):
            AdaptivityController(eddy, min_batch=8, max_batch=4)
        with pytest.raises(PlanError):
            AdaptivityController(eddy, grow_factor=1)

    def test_stats_shape(self):
        eddy = make_eddy()
        controller = AdaptivityController(eddy, check_every=1)
        controller.after_tuple()
        stats = controller.stats()
        assert stats["checks"] == 1
        assert stats["current_batch"] == eddy.batching.batch_size
