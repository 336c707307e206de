#!/usr/bin/env python
"""Flux on a simulated cluster: skew, rebalancing, and failover.

Partitions a Zipf-skewed group-by across four simulated machines (one
deliberately slow), then demonstrates the two Flux features of Section
2.4:

  1. online repartitioning — backlogs diverge, Flux moves partitions
     off the hot machine, throughput recovers;
  2. process-pair fault tolerance — a machine is killed mid-run; with
     replication the promoted replicas lose nothing, without it the
     dead machine's counts are gone (and accounted for).

Run:  python examples/cluster_failover.py
"""

import random

from repro.core.tuples import Schema
from repro.flux.cluster import Cluster, GroupCountState
from repro.flux.flux import Flux

PACKETS = Schema.of("pkts", "src")
N_TUPLES = 8000
N_KEYS = 40


def make_stream(seed=0):
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) ** 1.3 for k in range(N_KEYS)]
    return [PACKETS.make(rng.choices(range(N_KEYS), weights=weights)[0],
                         timestamp=i) for i in range(N_TUPLES)]


def build(speeds, **flux_kwargs):
    cluster = Cluster()
    for i, speed in enumerate(speeds):
        cluster.add_machine(f"m{i}", speed=speed)
    flux = Flux(cluster, n_partitions=12, key_fn=lambda t: t["src"],
                state_factory=lambda: GroupCountState("src"), **flux_kwargs)
    return cluster, flux


def drive(flux, data, fail_at=None, victim="m1"):
    ticks = 0
    i = 0
    while i < len(data) or flux.unacked_total():
        batch = data[i:i + 150]
        i += len(batch)
        flux.tick(batch)
        ticks += 1
        if fail_at is not None and ticks == fail_at:
            flux.cluster.fail(victim)
            report = flux.on_machine_failure(victim)
            print(f"    t={ticks}: {victim} crashed -> "
                  f"{report['promoted']} partitions promoted, "
                  f"{report['restarted']} restarted, "
                  f"{report['replayed']} in-flight tuples replayed")
    return ticks


def main() -> None:
    print("=== 1. Load balancing on a heterogeneous cluster ===")
    data = make_stream()
    _, static = build(speeds=(15, 120, 120, 120))
    static_ticks = drive(static, list(data))
    _, adaptive = build(speeds=(15, 120, 120, 120), rebalance_every=5,
                        imbalance_threshold=1.5)
    adaptive_ticks = drive(adaptive, list(data))
    print(f"  static Exchange      : {static_ticks} ticks to drain")
    print(f"  Flux w/ repartitioning: {adaptive_ticks} ticks "
          f"({adaptive.moves_completed} partition moves, "
          f"{adaptive.state_moved} state entries shipped)")
    assert adaptive.merged_counts() == static.merged_counts()
    print("  (identical group counts — balancing never changes answers)")

    print("\n=== 2. Failover: the replication QoS knob ===")
    truth = {}
    for t in data:
        truth[t["src"]] = truth.get(t["src"], 0) + 1
    for replication in (1, 0):
        _, flux = build(speeds=(80, 80, 80, 80), replication=replication)
        print(f"  replication={replication}:")
        drive(flux, list(data), fail_at=12)
        counted = sum(flux.merged_counts().values())
        ok = flux.merged_counts() == truth
        print(f"    counted {counted}/{len(data)} tuples; "
              f"lost {flux.lost_tuples}; exact answer: {ok}")
    print("\n  replication=1 pays ~2x processing for zero loss; "
          "replication=0 is cheaper but lossy — the paper's knob.")


if __name__ == "__main__":
    main()
