"""Tests for the ClusterBackend protocol layer.

Three things are on trial here, all tier-1 (zero processes spawned):

* :class:`SimulatedBackend` implements the protocol faithfully over the
  virtual cluster — handoffs, applied counts, imbalance, heartbeats;
* :class:`LoopbackBackend` — real :class:`WorkerCore` logic plus the
  full ``repro.net.frames`` wire round-trip, in-process — produces
  *identical answers* to the simulated substrate under arbitrary
  workloads, failures included (the parity property that lets tier-1
  vouch for the multiprocess execution semantics);
* routing is placement-stable across interpreters:
  :meth:`Flux._stable_hash` must not depend on ``PYTHONHASHSEED``.
"""

import functools
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tuples import Schema
from repro.errors import ClusterError
from repro.flux.backend import ClusterBackend, PartitionHandoff, \
    SimulatedBackend, as_backend
from repro.flux.cluster import Cluster, GroupCountState
from repro.flux.flux import Flux, FluxPump
from repro.flux.procs import LoopbackBackend, WorkerCore
from repro.sched.scheduler import Scheduler

S = Schema.of("pkts", "key")


def make_data(n=400, n_keys=12, seed=0):
    rng = random.Random(seed)
    return [S.make(rng.randrange(n_keys), timestamp=i) for i in range(n)]


def ground_truth(data):
    out = {}
    for t in data:
        out[t["key"]] = out.get(t["key"], 0) + 1
    return out


def sim_backend(n=3):
    cluster = Cluster()
    for i in range(n):
        cluster.add_machine(f"w{i}")
    return SimulatedBackend(cluster)


def group_factory():
    return GroupCountState("key")


class TestSimulatedBackend:
    def test_as_backend_wraps_cluster(self):
        cluster = Cluster()
        cluster.add_machine("m0")
        backend = as_backend(cluster)
        assert isinstance(backend, SimulatedBackend)
        assert backend.cluster is cluster
        # idempotent for an existing backend
        assert as_backend(backend) is backend

    def test_as_backend_rejects_junk(self):
        with pytest.raises(ClusterError):
            as_backend(object())

    def test_create_requires_configure(self):
        backend = sim_backend(1)
        with pytest.raises(ClusterError):
            backend.create_partition("w0", 0)

    def test_handoff_roundtrip_preserves_state(self):
        backend = sim_backend(2)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        for i in range(5):
            backend.enqueue("w0", 0, i, S.make(7))
        backend.step()
        handoff = backend.remove_partition("w0", 0)
        assert handoff.applied == 5
        assert backend.peek_partition("w0", 0) is None
        backend.install_partition("w1", 0, handoff)
        assert backend.peek_partition("w1", 0).counts == {7: 5}
        assert backend.applied_count("w1", 0) == 5

    def test_snapshot_does_not_detach(self):
        backend = sim_backend(1)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        backend.enqueue("w0", 0, 0, S.make(1))
        backend.step()
        handoff = backend.snapshot_partition("w0", 0)
        assert handoff.applied == 1
        assert backend.peek_partition("w0", 0) is not None
        # snapshot handoffs reconstruct (no live-state shortcut)
        restored = GroupCountState.from_snapshot(handoff.snapshot)
        assert restored.counts == {1: 1}

    def test_applied_count_survives_machine_death(self):
        backend = sim_backend(2)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        backend.enqueue("w0", 0, 0, S.make(3))
        backend.step()
        backend.fail("w0")
        assert not backend.is_alive("w0")
        assert backend.applied_count("w0", 0) == 1   # loss accounting

    def test_imbalance_and_heartbeat(self):
        backend = sim_backend(2)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        backend.create_partition("w1", 1)
        assert backend.imbalance() == 1.0   # all-zero backlog = balanced
        for i in range(4):
            backend.enqueue("w0", 0, i, S.make(1))
        assert backend.imbalance() == 2.0   # 4 vs 0 -> max/mean = 4/2
        beat = backend.heartbeat()
        assert beat["w0"] == {"alive": True, "backlog": 4, "processed": 0}
        assert beat["w1"]["backlog"] == 0

    def test_context_manager_protocol(self):
        with sim_backend(1) as backend:
            assert isinstance(backend, ClusterBackend)


class TestStableHash:
    """Routing must agree across interpreters (satellite: spawn-safe
    partitioning).  Known-value pins catch any drift toward the
    process-randomized builtin hash."""

    def test_known_values(self):
        assert Flux._stable_hash(42) == 42
        assert Flux._stable_hash("aapl") == zlib.crc32(b"aapl")
        assert Flux._stable_hash(("a", 1)) == zlib.crc32(repr(("a", 1)).encode())

    def test_never_uses_builtin_hash(self):
        # crc32 of "abc" is a published constant; builtin hash("abc")
        # cannot produce it under any seed.
        assert Flux._stable_hash("abc") == 891568578

    def test_partition_of_uses_stable_hash(self):
        backend = sim_backend(1)
        flux = Flux(backend, n_partitions=8, key_fn=lambda t: t["key"],
                    state_factory=group_factory)
        t = S.make(13)
        assert flux.partition_of(t) == 13 % 8


class TestLoopbackBackend:
    """The worker-core data path, in-process."""

    def test_rows_cross_the_wire_codec(self):
        backend = LoopbackBackend(workers=2)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        backend.enqueue("w0", 0, 0, S.make(5))
        acks = backend.step()
        assert acks == {"w0": [(0, 0)]}
        # values survived JSON framing
        handoff = backend.snapshot_partition("w0", 0)
        assert GroupCountState.from_snapshot(handoff.snapshot).counts == {5: 1}

    def test_worker_rejects_unknown_command(self):
        core = WorkerCore("w0")
        reply = core.on_control({"op": "execute_command", "id": 9,
                                 "cmd": "frobnicate"})
        assert reply["type"] == "execution_failed"
        assert reply["id"] == 9
        assert "frobnicate" in reply["error"]

    def test_worker_reports_configure_errors(self):
        core = WorkerCore("w0")
        reply = core.on_control({"op": "execute_command", "id": 1,
                                 "cmd": "create", "pid": 0})
        assert reply["type"] == "execution_failed"
        assert "factory" in reply["error"]

    def test_fail_kills_state_and_rejects_enqueue(self):
        backend = LoopbackBackend(workers=2)
        backend.configure(group_factory)
        backend.create_partition("w0", 0)
        backend.fail("w0")
        assert backend.alive_ids() == ["w1"]
        assert backend.snapshot_partition("w0", 0) is None
        with pytest.raises(ClusterError):
            backend.enqueue("w0", 0, 0, S.make(1))
        with pytest.raises(ClusterError):
            backend.fail("w0")


def run_flux(backend, data, batch=50, replication=0, fail_at=None):
    flux = Flux(backend, n_partitions=8, key_fn=lambda t: t["key"],
                state_factory=group_factory, replication=replication)
    i = 0
    tick = 0
    while i < len(data) or flux.unacked_total():
        rows = data[i:i + batch]
        i += len(rows)
        flux.tick(rows)
        tick += 1
        if fail_at is not None and tick == fail_at[1]:
            backend.fail(fail_at[0])
            flux.on_machine_failure(fail_at[0])
        assert tick < 50_000
    return flux


class TestSimulatedLoopbackParity:
    """The tier-1 stand-in for the multiprocess acceptance test: the
    simulated substrate and the worker-core substrate must agree on
    every answer."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([0, 1]))
    def test_merged_counts_identical(self, keys, n_workers, replication):
        if replication and n_workers < 2:
            n_workers = 2
        data = [S.make(k, timestamp=i) for i, k in enumerate(keys)]
        sim = sim_backend(n_workers)
        loop = LoopbackBackend(workers=n_workers)
        sim_flux = run_flux(sim, data, replication=replication)
        loop_flux = run_flux(loop, data, replication=replication)
        assert sim_flux.merged_counts() == loop_flux.merged_counts() \
            == ground_truth(data)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=40, max_size=120),
           st.integers(min_value=1, max_value=3))
    def test_replicated_failover_parity(self, keys, fail_tick):
        data = [S.make(k, timestamp=i) for i, k in enumerate(keys)]
        sim = sim_backend(3)
        loop = LoopbackBackend(workers=3)
        sim_flux = run_flux(sim, data, replication=1,
                            fail_at=("w0", fail_tick))
        loop_flux = run_flux(loop, data, replication=1,
                             fail_at=("w0", fail_tick))
        assert sim_flux.merged_counts() == loop_flux.merged_counts() \
            == ground_truth(data)
        assert sim_flux.lost_tuples == loop_flux.lost_tuples == 0


class TestFluxPump:
    """The conductor pump as a unified-scheduler citizen."""

    def test_pump_drives_flux_to_completion(self):
        data = make_data(300)
        backend = sim_backend(3)
        flux = Flux(backend, n_partitions=8, key_fn=lambda t: t["key"],
                    state_factory=group_factory, replication=1)
        batches = [data[i:i + 40] for i in range(0, len(data), 40)]
        pump = FluxPump(flux, feed=batches)
        sched = Scheduler(telemetry=False)
        sched.add(pump)
        sched.run_until_finished(max_passes=50_000)
        assert pump.finished
        assert flux.unacked_total() == 0
        assert flux.merged_counts() == ground_truth(data)

    def test_pump_without_feed_drains_inflight(self):
        backend = sim_backend(2)
        flux = Flux(backend, n_partitions=4, key_fn=lambda t: t["key"],
                    state_factory=group_factory)
        flux.route(make_data(50))
        pump = FluxPump(flux)
        assert not pump.finished        # acks are outstanding
        sched = Scheduler(telemetry=False)
        sched.add(pump)
        sched.run_until_finished(max_passes=10_000)
        assert flux.unacked_total() == 0
        assert pump.finished

    def test_recovery_time_is_recorded(self):
        backend = sim_backend(3)
        flux = Flux(backend, n_partitions=6, key_fn=lambda t: t["key"],
                    state_factory=group_factory, replication=1)
        flux.tick(make_data(100))
        backend.fail("w1")
        flux.on_machine_failure("w1")
        assert len(flux.recovery_times_ms) == 1
        assert flux.recovery_times_ms[-1] >= 0.0
