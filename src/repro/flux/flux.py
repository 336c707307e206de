"""Flux: the Fault-tolerant, Load-balancing eXchange (Section 2.4).

Flux generalises Graefe's Exchange: it partitions an input stream across
consumer instances on a cluster and, unlike Exchange, can

* **repartition online** — when machine backlogs diverge, a partition is
  moved from the most loaded to the least loaded machine.  The state
  movement protocol pauses the partition's input (new tuples buffer
  inside Flux), waits for the old host to drain the partition's queued
  work, ships the state, then replays the buffer to the new host — the
  paper's "buffering and reordering mechanisms";
* **fail over** — with ``replication = 1`` each partition keeps a
  process-pair replica on another machine receiving the same input; on
  a crash the replica is promoted and no data is lost, because every
  in-flight tuple is tracked until *both* copies acknowledge it;
* expose a **QoS knob** — replication costs duplicate work (throughput)
  and buys zero-loss recovery; degree 0 trades the reverse.  Experiment
  E7 measures both sides.

Delivery tracking: each routed tuple carries a sequence number and an
*acknowledgement set* — the machine ids still expected to apply it.  A
machine's crash removes it from every pending set (it will never ack);
whatever was pending **only** on the dead machine is replayed to the
partition's new home.  With a live replica nothing is ever pending only
on the primary, which is exactly why process pairs lose nothing.

Flux itself never touches a machine: it programs exclusively against
the :class:`~repro.flux.backend.ClusterBackend` protocol, so the same
routing/balancing/failover logic runs on the deterministic simulated
cluster (tier-1) and on real worker processes
(:class:`~repro.flux.procs.MultiprocessBackend`), where recovery and
imbalance are wall-clock quantities.  Every question Flux used to
answer by peeking into machine queues is now answered from its own
in-flight ledger — the ledger and the queues are views of the same
un-acknowledged set, and only the ledger exists on this side of a
process boundary.
"""

from __future__ import annotations

import itertools
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, \
    Sequence, Set, Tuple as TypingTuple

from repro.core.tuples import Tuple
from repro.errors import ClusterError
from repro.flux.backend import ClusterBackend, PartitionHandoff, as_backend
from repro.flux.cluster import Cluster, PartitionState
from repro.monitor.clock import now
from repro.monitor.telemetry import get_registry
from repro.sched.protocol import FunctionUnit, Schedulable, StepResult
from repro.sched.scheduler import Scheduler, SchedulerStall

_FLUX_IDS = itertools.count()


class PartitionMove:
    """Bookkeeping for one in-progress state movement."""

    __slots__ = ("pid", "source", "target", "buffered", "state_size")

    def __init__(self, pid: int, source: str, target: str):
        self.pid = pid
        self.source = source
        self.target = target
        self.buffered: Deque[TypingTuple[int, Tuple]] = deque()
        self.state_size = 0


class Flux:
    """The operator: partitioned routing + balancing + failover."""

    def __init__(self, backend: Any, n_partitions: int,
                 key_fn: Callable[[Tuple], Any],
                 state_factory: Callable[[], PartitionState],
                 replication: int = 0,
                 rebalance_every: int = 0,
                 imbalance_threshold: float = 2.0):
        if replication not in (0, 1):
            raise ClusterError("replication degree must be 0 or 1")
        self.backend: ClusterBackend = as_backend(backend)
        self.backend.configure(state_factory)
        machines = self.backend.alive_ids()
        if not machines:
            raise ClusterError("cluster has no machines")
        if replication and len(machines) < 2:
            raise ClusterError("replication needs at least two machines")
        self.n_partitions = n_partitions
        self.key_fn = key_fn
        self.state_factory = state_factory
        self.replication = replication
        self.rebalance_every = rebalance_every
        self.imbalance_threshold = imbalance_threshold
        self._seq = itertools.count()
        self._epoch = 0
        # Placement: round-robin primaries; replicas offset by one so a
        # process pair never shares a machine.
        self.primary: Dict[int, str] = {}
        self.replica: Dict[int, str] = {}
        for pid in range(n_partitions):
            host = machines[pid % len(machines)]
            self.backend.create_partition(host, pid)
            self.primary[pid] = host
            if replication:
                mirror = machines[(pid + 1) % len(machines)]
                self.backend.create_partition(mirror, pid)
                self.replica[pid] = mirror
        #: per-partition in-flight ledger: seq -> (tuple, machines that
        #: still owe an acknowledgement).
        self._unacked: Dict[int, Dict[int, TypingTuple[Tuple, Set[str]]]] = \
            {pid: {} for pid in range(n_partitions)}
        self._moves: Dict[int, PartitionMove] = {}
        self._state_cls: Optional[type] = None
        self.routed = 0
        self.moves_completed = 0
        self.state_moved = 0
        self.recovered_partitions = 0
        self.lost_tuples = 0
        self.replayed_tuples = 0
        #: wall-clock milliseconds spent inside each on_machine_failure.
        self.recovery_times_ms: List[float] = []
        self.backlog_history: List[Dict[str, int]] = []
        self._telemetry = get_registry()
        self._telemetry_id = f"flux#{next(_FLUX_IDS)}"
        self._telemetry.register_collector(self._publish_telemetry)

    @property
    def cluster(self) -> Cluster:
        """The simulated cluster, where the backend has one (tier-1
        tests inspect machines directly); raises on real backends."""
        cluster = getattr(self.backend, "cluster", None)
        if cluster is None:
            raise ClusterError(
                f"{type(self.backend).__name__} exposes no simulated "
                f"cluster; use the ClusterBackend protocol")
        return cluster

    # -- routing --------------------------------------------------------------
    @staticmethod
    def _stable_hash(value: Any) -> int:
        """A hash that is identical across processes (Python's str hash
        is randomized per run, which would make partition placement —
        and cross-process repartitioning — nondeterministic)."""
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            return zlib.crc32(value.encode())
        return zlib.crc32(repr(value).encode())

    def partition_of(self, t: Tuple) -> int:
        return self._stable_hash(self.key_fn(t)) % self.n_partitions

    def route(self, tuples: List[Tuple]) -> int:
        """Send tuples towards their partitions' hosts."""
        for t in tuples:
            pid = self.partition_of(t)
            seq = next(self._seq)
            move = self._moves.get(pid)
            if move is not None:
                move.buffered.append((seq, t))   # paused for movement
                continue
            self._send(pid, seq, t)
        self.routed += len(tuples)
        return len(tuples)

    def _send(self, pid: int, seq: int, t: Tuple) -> None:
        targets = [self.primary[pid]]
        mirror = self.replica.get(pid)
        if mirror is not None:
            targets.append(mirror)
        self._unacked[pid][seq] = (t, set(targets))
        for machine_id in targets:
            self.backend.enqueue(machine_id, pid, seq, t)

    # -- the drive loop -----------------------------------------------------
    def tick(self, arriving: Optional[List[Tuple]] = None,
             wait: bool = True) -> int:
        """One epoch: route arrivals, let machines work, collect acks,
        progress moves, maybe rebalance.  Returns fully-acked count.

        With ``wait=True`` (standalone drive loops) an idle epoch parks
        briefly in ``backend.wait_for_acks`` instead of spinning.  The
        loop-hosted :class:`FluxPump` passes ``wait=False`` so a tick
        never blocks the event-loop thread it shares with the network
        pump — the scheduler's idle protocol provides the pacing there.
        """
        if arriving:
            self.route(arriving)
        self._epoch += 1
        acked = self._collect_acks(self.backend.step())
        if wait and not acked and self.unacked_total():
            self.backend.wait_for_acks()
            acked += self._collect_acks(self.backend.poll_acks())
        self._progress_moves()
        if self.rebalance_every and \
                self._epoch % self.rebalance_every == 0:
            self.maybe_rebalance()
        self.backlog_history.append(dict(self.backend.backlogs()))
        return acked

    def _collect_acks(self,
                      acks: Dict[str, List[TypingTuple[int, int]]]) -> int:
        done = 0
        for machine_id, machine_acks in acks.items():
            for pid, seq in machine_acks:
                entry = self._unacked[pid].get(seq)
                if entry is None:
                    continue
                _t, pending = entry
                pending.discard(machine_id)
                if not pending:
                    del self._unacked[pid][seq]
                    done += 1
        return done

    def _pending_on(self, machine_id: str, pid: int) -> int:
        """In-flight tuples for ``pid`` still awaiting ``machine_id``'s
        acknowledgement — the ledger's view of that machine's queued
        share of the partition."""
        return sum(1 for _t, pending in self._unacked[pid].values()
                   if machine_id in pending)

    # -- online repartitioning -----------------------------------------------------
    def maybe_rebalance(self) -> Optional[int]:
        """Move one partition off the most backlogged machine when the
        cluster is imbalanced; returns the moved pid or None."""
        alive = self.backend.alive_ids()
        if len(alive) < 2 or self._moves:
            return None
        if self.backend.imbalance() < self.imbalance_threshold:
            return None
        backlogs = self.backend.backlogs()
        loaded = max(alive, key=lambda mid: backlogs.get(mid, 0))
        light = min(alive, key=lambda mid: backlogs.get(mid, 0))
        if loaded == light or backlogs.get(loaded, 0) == 0:
            return None
        candidates = [pid for pid, host in self.primary.items()
                      if host == loaded
                      and self.replica.get(pid) != light]
        if not candidates:
            return None
        # Move the partition with the largest queued share on the loaded
        # machine — relieves the most pressure per move.
        queued = {pid: self._pending_on(loaded, pid) for pid in candidates}
        pid = max(candidates, key=lambda p: queued[p])
        if queued[pid] == 0:
            return None
        self._moves[pid] = PartitionMove(pid, loaded, light)
        return pid

    def _progress_moves(self) -> None:
        """A move completes once the source drains the partition's
        queued work; then the state ships and the buffer replays."""
        for pid, move in list(self._moves.items()):
            source_alive = self.backend.is_alive(move.source)
            if source_alive and self._pending_on(move.source, pid):
                continue  # still draining
            handoff = None
            if source_alive:
                handoff = self.backend.remove_partition(move.source, pid)
            if handoff is None:
                handoff = self._handoff_from_replica(pid)
            if handoff is None:
                self.backend.create_partition(move.target, pid)
                moved_size = 0
            else:
                self.backend.install_partition(move.target, pid, handoff)
                moved_size = handoff.size
            self.primary[pid] = move.target
            self.state_moved += moved_size
            move.state_size = moved_size
            del self._moves[pid]
            self.moves_completed += 1
            for seq, t in move.buffered:
                self._send(pid, seq, t)

    def _handoff_from_replica(self, pid: int) -> Optional[PartitionHandoff]:
        mirror_id = self.replica.get(pid)
        if mirror_id is None or not self.backend.is_alive(mirror_id):
            return None
        return self.backend.snapshot_partition(mirror_id, pid)

    # -- failover -------------------------------------------------------------------
    def on_machine_failure(self, machine_id: str) -> Dict[str, int]:
        """React to a crash: promote replicas or restart partitions,
        replay whatever was pending only on the dead machine, and
        re-establish replication.  Call after ``backend.fail(...)``.

        The wall-clock cost of the whole reaction (promotion, state
        snapshots for fresh replicas, replay) lands in
        ``recovery_times_ms`` — on the multiprocess backend that is
        real recovery time.
        """
        started = now()
        if self.backend.is_alive(machine_id):
            raise ClusterError(
                f"machine {machine_id!r} has not failed; call "
                "backend.fail() first")
        alive = self.backend.alive_ids()
        if not alive:
            raise ClusterError("no surviving machines to recover onto")
        backlogs = self.backend.backlogs()
        # Abort any move touching the dead machine.  Tuples buffered for
        # a paused partition were never sent anywhere, so they must be
        # re-sent once the partition has a live home again.
        move_buffered: Dict[int, List[TypingTuple[int, Tuple]]] = {}
        for pid, move in list(self._moves.items()):
            if machine_id in (move.source, move.target):
                move_buffered[pid] = list(move.buffered)
                del self._moves[pid]

        promoted = 0
        restarted = 0
        replayed = 0
        for pid in range(self.n_partitions):
            lost_primary = self.primary[pid] == machine_id
            lost_replica = self.replica.get(pid) == machine_id
            # The dead machine will never acknowledge anything.
            orphans: List[TypingTuple[int, Tuple]] = []
            for seq, (t, pending) in list(self._unacked[pid].items()):
                if machine_id in pending:
                    pending.discard(machine_id)
                if not pending:
                    # Pending only on the dead machine -> lost in its
                    # queue; must be replayed to the new home.
                    orphans.append((seq, t))
                    del self._unacked[pid][seq]
            replay_orphans = False
            if lost_primary:
                mirror_id = self.replica.get(pid)
                if mirror_id and self.backend.is_alive(mirror_id):
                    # Process-pair failover: the replica already received
                    # (or applied) every orphan, so nothing replays.
                    self.primary[pid] = mirror_id
                    del self.replica[pid]
                    promoted += 1
                else:
                    new_home = min(alive,
                                   key=lambda mid: backlogs.get(mid, 0))
                    self.lost_tuples += \
                        self.backend.applied_count(machine_id, pid)
                    self.backend.create_partition(new_home, pid)
                    self.primary[pid] = new_home
                    restarted += 1
                    replay_orphans = True
            elif lost_replica:
                # The primary still holds everything; orphans (pending
                # only on the dead replica) are already applied upstream.
                del self.replica[pid]
            if replay_orphans:
                for seq, t in orphans:
                    self._send(pid, seq, t)
                    replayed += 1
                self.replayed_tuples += len(orphans)
            if (lost_primary or lost_replica) and self.replication:
                self._respawn_replica(pid)
            for seq, t in move_buffered.get(pid, ()):
                self._send(pid, seq, t)
                replayed += 1
        self.recovered_partitions += promoted + restarted
        self.recovery_times_ms.append((now() - started) * 1000.0)
        return {"promoted": promoted, "restarted": restarted,
                "replayed": replayed}

    def _respawn_replica(self, pid: int) -> None:
        """Re-establish the process pair: snapshot the primary's state
        onto a fresh mirror and forward the primary's queued work so the
        copies converge."""
        alive = self.backend.alive_ids()
        primary_id = self.primary[pid]
        options = [mid for mid in alive if mid != primary_id]
        if not options or pid in self.replica:
            return
        backlogs = self.backend.backlogs()
        mirror = min(options, key=lambda mid: backlogs.get(mid, 0))
        handoff = self.backend.snapshot_partition(primary_id, pid)
        if handoff is None:
            return
        # The snapshot barrier may have surfaced acknowledgements; fold
        # them into the ledger first so only genuinely-unapplied work is
        # forwarded (forwarding an already-snapshotted tuple would
        # double-apply it at the mirror).
        self._collect_acks(self.backend.poll_acks())
        self.backend.install_partition(mirror, pid, handoff)
        self.replica[pid] = mirror
        # Mirror must also see what the primary has queued but not yet
        # applied, and owes an ack for each.
        for seq, (t, pending) in self._unacked[pid].items():
            if primary_id not in pending:
                continue
            pending.add(mirror)
            self.backend.enqueue(mirror, pid, seq, t)

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        flux = self._telemetry_id
        reg.counter("tcq_flux_routed_total",
                    "Tuples routed through Flux", ("flux",),
                    collected=True).labels(flux).set_total(self.routed)
        reg.counter("tcq_flux_moves_total",
                    "Completed partition movements", ("flux",),
                    collected=True).labels(flux).set_total(
            self.moves_completed)
        reg.counter("tcq_flux_state_moved_total",
                    "State entries shipped between machines", ("flux",),
                    collected=True).labels(flux).set_total(self.state_moved)
        reg.counter("tcq_flux_recovered_partitions_total",
                    "Partitions promoted or restarted after failures",
                    ("flux",), collected=True).labels(flux).set_total(
            self.recovered_partitions)
        reg.counter("tcq_flux_replayed_total",
                    "Tuples replayed during recovery", ("flux",),
                    collected=True).labels(flux).set_total(
            self.replayed_tuples)
        reg.counter("tcq_flux_lost_total",
                    "Tuples lost to unreplicated failures", ("flux",),
                    collected=True).labels(flux).set_total(self.lost_tuples)
        reg.gauge("tcq_flux_unacked",
                  "In-flight tuples awaiting acknowledgement", ("flux",),
                  collected=True).labels(flux).set(self.unacked_total())
        reg.gauge("tcq_flux_partition_skew",
                  "Cluster backlog imbalance (max/mean)", ("flux",),
                  collected=True).labels(flux).set(self.backend.imbalance())
        if self.recovery_times_ms:
            reg.gauge("tcq_flux_recovery_ms",
                      "Wall-clock duration of the last failover reaction",
                      ("flux",), collected=True).labels(flux).set(
                self.recovery_times_ms[-1])
        backlog = reg.gauge("tcq_flux_machine_backlog",
                            "Queued work per live machine",
                            ("flux", "machine"), collected=True)
        for mid, depth in self.backend.backlogs().items():
            backlog.labels(flux, mid).set(depth)

    # -- results ------------------------------------------------------------
    def _resolve_state_cls(self) -> type:
        if self._state_cls is None:
            self._state_cls = type(self.state_factory())
        return self._state_cls

    def partition_state(self, pid: int) -> Optional[PartitionState]:
        """The current primary state of ``pid`` — the live object on
        same-process backends, a snapshot reconstruction otherwise."""
        host = self.primary[pid]
        state = self.backend.peek_partition(host, pid)
        if state is not None:
            return state
        handoff = self.backend.snapshot_partition(host, pid)
        if handoff is None:
            return None
        if handoff.state is not None:
            return handoff.state
        return self._resolve_state_cls().from_snapshot(handoff.snapshot)

    def merged_counts(self) -> Dict[Any, int]:
        """Union the per-partition group counts from current primaries
        (meaningful for GroupCountState-style consumers)."""
        out: Dict[Any, int] = {}
        for pid in self.primary:
            state = self.partition_state(pid)
            if state is None:
                continue
            for key, count in getattr(state, "counts", {}).items():
                out[key] = out.get(key, 0) + count
        return out

    def unacked_total(self) -> int:
        return sum(len(v) for v in self._unacked.values())

    def drain(self, max_ticks: int = 100_000) -> int:
        """Run ticks with no new input until everything is acked.

        The drive loop is a throwaway unified-scheduler unit so Flux
        shares the one quiescence/stall protocol with every other run
        loop in the system.
        """
        if not self.unacked_total():
            return 0
        unit = FunctionUnit(
            f"{self._telemetry_id}:drain",
            step=lambda _quantum: bool(self.tick()),
            is_finished=lambda: not self.unacked_total())
        sched = Scheduler(name=f"{self._telemetry_id}:drain",
                          telemetry=False)
        sched.add(unit)
        try:
            return sched.run_until_finished(max_passes=max_ticks)
        except SchedulerStall:
            raise ClusterError(
                "flux failed to drain in-flight tuples") from None


class FluxPump(Schedulable):
    """The conductor pump as a unified-scheduler unit.

    Wraps a :class:`Flux` (and optionally a feed of arriving batches)
    so the cluster data plane runs *beside* the engine, the network
    pump, and every other :class:`~repro.sched.protocol.Schedulable`
    under one scheduler — one ``run_once`` is one Flux epoch.
    """

    def __init__(self, flux: Flux,
                 feed: Optional[Iterable[Sequence[Tuple]]] = None,
                 name: Optional[str] = None):
        self.flux = flux
        self._feed = iter(feed) if feed is not None else None
        self._feed_done = feed is None
        self.name = name or f"{flux._telemetry_id}:pump"
        self.epochs = 0

    @property
    def finished(self) -> bool:
        return self._feed_done and not self.flux.unacked_total()

    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        batch: Optional[List[Tuple]] = None
        if not self._feed_done:
            try:
                batch = list(next(self._feed))
            except StopIteration:
                self._feed_done = True
        # wait=False: this quantum may run on the event-loop thread, so
        # an idle epoch yields to the scheduler instead of parking.
        acked = self.flux.tick(batch, wait=False)
        self.epochs += 1
        worked = bool(acked) or bool(batch)
        if self.finished:
            return StepResult(worked, finished=True)
        return StepResult.BUSY if worked else StepResult.IDLE
