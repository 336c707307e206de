"""Tests for the monitor layer: statistics trackers and QoS load
shedding."""

import pytest

from repro.core.tuples import Schema
from repro.errors import QosError
from repro.monitor.qos import LoadShedder
from repro.monitor.stats import RateEstimator, SelectivityTracker

S = Schema.of("S", "cls", "v")


def batch(classes):
    return [S.make(c, i, timestamp=i) for i, c in enumerate(classes)]


class TestSelectivityTracker:
    def test_windowed_reacts_to_drift(self):
        tr = SelectivityTracker(window=50)
        for _ in range(200):
            tr.observe(True)
        for _ in range(50):
            tr.observe(False)
        assert tr.windowed_rate == 0.0
        assert 0.7 < tr.lifetime_rate < 0.9

    def test_defaults_before_evidence(self):
        tr = SelectivityTracker()
        assert tr.windowed_rate == 1.0
        assert tr.lifetime_rate == 1.0


class TestRateEstimator:
    def test_rate_over_window(self):
        est = RateEstimator(window_ticks=4)
        for n in (10, 20, 30, 40):
            est.tick(n)
        assert est.rate() == 25.0
        assert est.peak() == 40

    def test_window_slides(self):
        est = RateEstimator(window_ticks=2)
        est.tick(100)
        est.tick(0)
        est.tick(0)
        assert est.rate() == 0.0


class TestLoadShedder:
    def test_none_policy_never_drops(self):
        shedder = LoadShedder(policy="none")
        shedder.update(arrived=1000, serviced=10)
        kept = shedder.admit(batch(["a"] * 100))
        assert len(kept) == 100
        assert shedder.completeness() == 1.0

    def test_random_sheds_proportionally(self):
        shedder = LoadShedder(policy="random", seed=1,
                              target_utilisation=1.0)
        rate = shedder.update(arrived=200, serviced=100)
        assert rate == pytest.approx(0.5)
        kept = shedder.admit(batch(["a"] * 1000))
        assert 400 < len(kept) < 600

    def test_no_shedding_under_capacity(self):
        shedder = LoadShedder(policy="random")
        assert shedder.update(arrived=50, serviced=100) == 0.0
        assert len(shedder.admit(batch(["a"] * 10))) == 10

    def test_preferred_drops_low_priority_first(self):
        shedder = LoadShedder(policy="preferred",
                              classify=lambda t: t["cls"],
                              preferences={"gold": 10.0, "junk": 0.0},
                              target_utilisation=1.0)
        shedder.update(arrived=100, serviced=50)
        mixed = batch(["gold"] * 10 + ["junk"] * 10)
        kept = shedder.admit(mixed)
        kept_classes = [t["cls"] for t in kept]
        assert kept_classes.count("gold") == 10
        assert kept_classes.count("junk") < 10
        assert shedder.dropped_by_class.get("junk", 0) > 0
        assert shedder.dropped_by_class.get("gold", 0) == 0

    def test_preferred_requires_classifier(self):
        with pytest.raises(QosError):
            LoadShedder(policy="preferred")

    def test_unknown_policy(self):
        with pytest.raises(QosError):
            LoadShedder(policy="yolo")

    def test_shedding_adapts_to_lull(self):
        shedder = LoadShedder(policy="random", target_utilisation=1.0)
        shedder.update(arrived=200, serviced=100)
        assert shedder.drop_rate > 0
        for _ in range(40):                 # long lull
            shedder.update(arrived=10, serviced=100)
        assert shedder.drop_rate == 0.0

    def test_stats_shape(self):
        shedder = LoadShedder(policy="random")
        stats = shedder.stats()
        assert stats["policy"] == "random"
        assert stats["completeness"] == 1.0
