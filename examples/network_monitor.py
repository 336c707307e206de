#!/usr/bin/env python
"""Network monitoring under overload: QoS load shedding + Juggle.

A Tribeca-style packet-summary stream bursts past the engine's service
capacity.  The script runs the same standing queries three ways —

  1. no shedding (queue and latency grow without bound),
  2. random shedding sized to the overload factor,
  3. preference-aware shedding that protects traffic to the watched
     subnet while dropping bulk traffic first,

— and uses Juggle to deliver the security team's suspicious-port hits
ahead of routine rows.  This is Section 4.3's QoS story end to end.

Run:  python examples/network_monitor.py
"""

from repro.core.cacq import CACQEngine
from repro.core.tuples import Punctuation
from repro.fjords.queues import PushQueue
from repro.ingress.generators import PacketStreamGenerator
from repro.juggle.juggle import Juggle
from repro.monitor.qos import LoadShedder
from repro.query.predicates import Comparison

N_PACKETS = 6000
SERVICE_CAPACITY = 60          # tuples the engine can absorb per epoch
EPOCH = 200                    # arrivals per epoch (overload factor ~3)
WATCHED_HOSTS = {"h0", "h1", "h2"}
SUSPICIOUS_PORT = 13


def build_engine():
    engine = CACQEngine()
    schema = PacketStreamGenerator().schema
    engine.register_stream(schema)
    big = engine.add_query([schema.name], Comparison("bytes", ">", 1400),
                           name="jumbo-frames")
    suspicious = engine.add_query([schema.name],
                                  Comparison("port", "==", SUSPICIOUS_PORT),
                                  name="suspicious-port")
    return engine, schema, big, suspicious


def run_with_shedder(shedder, packets):
    engine, schema, big, suspicious = build_engine()
    backlog = 0
    max_backlog = 0
    for start in range(0, len(packets), EPOCH):
        arriving = packets[start:start + EPOCH]
        shedder.update(arrived=len(arriving), serviced=SERVICE_CAPACITY)
        admitted = shedder.admit(arriving)
        backlog = max(0, backlog + len(admitted) - SERVICE_CAPACITY)
        max_backlog = max(max_backlog, backlog)
        for t in admitted:
            engine.push_tuple(schema.name, t)
    return {
        "policy": shedder.policy,
        "completeness": shedder.completeness(),
        "max_backlog": max_backlog,
        "suspicious_hits": suspicious.delivered,
        "jumbo_hits": big.delivered,
        "dropped_by_class": dict(
            sorted(shedder.dropped_by_class.items())[:3]),
    }


def main() -> None:
    packets = PacketStreamGenerator(n_hosts=50, zipf_s=1.2, seed=3,
                                    burst_every=7, burst_factor=8) \
        .take(N_PACKETS)

    shedders = [
        LoadShedder(policy="none"),
        LoadShedder(policy="random", seed=1),
        LoadShedder(policy="preferred", seed=1,
                    classify=lambda t: "watched" if t["src"] in
                    WATCHED_HOSTS else "bulk",
                    preferences={"watched": 10.0, "bulk": 0.0}),
    ]
    print(f"{N_PACKETS} packets at ~{EPOCH}/epoch vs capacity "
          f"{SERVICE_CAPACITY}/epoch (overload ~{EPOCH/SERVICE_CAPACITY:.1f}x)\n")
    for shedder in shedders:
        report = run_with_shedder(shedder, list(packets))
        print(f"policy={report['policy']:9s} "
              f"completeness={report['completeness']:.2f} "
              f"max_backlog={report['max_backlog']:5d} "
              f"suspicious={report['suspicious_hits']:3d} "
              f"jumbo={report['jumbo_hits']:3d}")
        if report["dropped_by_class"]:
            print(f"{'':10s}drops by class: {report['dropped_by_class']}")

    # --- Juggle: deliver suspicious-port rows first -----------------------
    juggle = Juggle(classify=lambda t: t["port"] == SUSPICIOUS_PORT,
                    preferences={True: 10.0}, buffer_capacity=512,
                    emit_quota=16)
    q_in, q_out = PushQueue(), PushQueue()
    juggle.bind_input(0, q_in)
    juggle.bind_output(0, q_out)
    for t in packets[:2000]:
        q_in.push(t)
    q_in.push(Punctuation.eos())
    while not juggle.finished:
        juggle.run_once()
    delivered = []
    while len(q_out):
        item = q_out.pop()
        if not isinstance(item, Punctuation):
            delivered.append(item)
    first_hit_fifo = next(i for i, t in enumerate(packets[:2000])
                          if t["port"] == SUSPICIOUS_PORT)
    first_hit_juggle = next(i for i, t in enumerate(delivered)
                            if t["port"] == SUSPICIOUS_PORT)
    print(f"\nJuggle: first suspicious packet delivered at position "
          f"{first_hit_juggle} (FIFO: {first_hit_fifo})")


if __name__ == "__main__":
    main()
