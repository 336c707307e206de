#!/usr/bin/env python
"""Sensor-network monitoring: shared CQs plus PSoup for field engineers.

The scenario the paper's introduction motivates: a fleet of motes push
temperature/voltage readings; dozens of standing queries watch for
anomalies (CACQ shares their predicates through grouped filters), while
intermittently-connected field engineers use PSoup — registering a query
once, disconnecting, and retrieving the latest windowed answer whenever
they come back online.

Run:  python examples/sensor_network.py
"""

from repro.core.cacq import CACQEngine
from repro.core.psoup import PSoup
from repro.query.predicates import Comparison
from repro.ingress.generators import SensorStreamGenerator

N_TICKS = 300
N_SENSORS = 8


def main() -> None:
    schema = SensorStreamGenerator().schema

    # --- CACQ: one shared engine for all standing alert queries ----------
    engine = CACQEngine()
    engine.register_stream(schema)
    # per-sensor overheating alerts, three severity tiers each
    alerts = {}
    for sensor in range(N_SENSORS):
        for severity, threshold in (("warn", 24.0), ("high", 30.0),
                                    ("critical", 40.0)):
            query = engine.add_query(
                [schema.name],
                Comparison("sensor_id", "==", sensor)
                & Comparison("temperature", ">", threshold),
                name=f"s{sensor}-{severity}")
            alerts[(sensor, severity)] = query
    # a fleet-wide battery watchdog
    battery = engine.add_query([schema.name],
                               Comparison("voltage", "<", 2.975),
                               name="battery-low")

    # --- PSoup: disconnected engineers -----------------------------------
    psoup = PSoup(schema)
    engineer_a = psoup.register_query(
        Comparison("temperature", ">", 26.0), window=50,
        name="engineer-a: recent hot readings")
    engineer_b = psoup.register_query(
        Comparison("sensor_id", "==", 3), window=25,
        name="engineer-b: everything from mote 3")

    # --- the stream --------------------------------------------------------
    feed = SensorStreamGenerator(n_sensors=N_SENSORS, seed=11,
                                 failure_rate=0.02, anomaly_rate=0.01,
                                 anomaly_delta=25.0)
    reconnects = {100: engineer_a, 200: engineer_b, 300: engineer_a}
    for reading in feed.ticks(N_TICKS):
        engine.push_tuple(schema.name, reading)
        psoup.push_tuple(
            schema.make(*reading.values, timestamp=reading.timestamp))
        if reading.timestamp in reconnects and reading["sensor_id"] == 0:
            query = reconnects[reading.timestamp]
            answer = psoup.invoke(query)
            print(f"[t={reading.timestamp:3d}] {query.name!r} reconnects: "
                  f"{len(answer)} matching readings in its window")

    # --- report -------------------------------------------------------------
    print("\nshared-alert summary "
          f"({len(engine.queries)} standing queries, "
          f"{len(engine.filters)} grouped filters):")
    for severity in ("warn", "high", "critical"):
        fired = sum(alerts[(s, severity)].delivered
                    for s in range(N_SENSORS))
        print(f"  {severity:9s}: {fired} alerts across the fleet")
    print(f"  battery  : {battery.delivered} low-voltage readings")

    stats = engine.stats()
    print(f"\nsharing at work: {stats['tuples_in']} readings triggered "
          f"only {stats['filter_probes']} grouped-filter probes for "
          f"{stats['queries']} queries")
    psoup.vacuum()
    print(f"PSoup retains {len(psoup.data_stem)} readings after vacuum "
          f"(max window = {psoup.query_stem.max_window()})")


if __name__ == "__main__":
    main()
