#!/usr/bin/env python
"""Explicit dataflow graphs, the scripting way (Section 2).

"Dataflows are initiated by clients either via an ad hoc query language
... or via a scripting language for representing dataflow graphs
explicitly."  This example builds a sensor-monitoring dataflow from
script text alone — select, project, sort, limit — binds a synthetic
sensor source, runs it over the Fjord scheduler, and prints the sink.
A second script splices a Juggle node in front of the sink to show
preference-driven delivery without touching the rest of the graph.

Run:  python examples/scripted_dataflow.py
"""

from repro.fjords.module import SourceModule
from repro.ingress.generators import SensorStreamGenerator
from repro.query.dataflow_script import parse_script

PIPELINE = """
# hottest distinct readings, worst first
node readings = source
node hot      = select(temperature > 24)
node slim     = project(sensor_id, temperature)
node worst    = sort(temperature desc)
node top      = limit(8)
node out      = sink

edge readings -> hot [capacity=256]
edge hot -> slim
edge slim -> worst
edge worst -> top
edge top -> out
"""

JUGGLED = """
node readings = source
node hot      = select(temperature > 24)
node triage   = juggle(sensor_id)        # deliver watched motes first
node out      = sink

edge readings -> hot
edge hot -> triage
edge triage -> out
"""


class SensorFeed(SourceModule):
    """Replays a generated sensor trace as a push source."""

    def __init__(self, rows, name="readings"):
        super().__init__(name)
        self.rows = list(rows)
        self._i = 0

    def generate(self, batch):
        chunk = self.rows[self._i:self._i + batch]
        self._i += len(chunk)
        if self._i >= len(self.rows):
            self.exhausted = True
        return chunk


def main() -> None:
    trace = SensorStreamGenerator(n_sensors=6, seed=21, anomaly_rate=0.03,
                                  anomaly_delta=15.0).take(300)

    print("=== script 1: hottest distinct readings ===")
    script = parse_script(PIPELINE)
    fjord = script.build(bindings={"readings": SensorFeed(trace)})
    fjord.run_until_finished()
    for t in script.sinks(fjord)["out"].results:
        print(f"  mote {t['sensor_id']}: {t['temperature']:.1f} C")

    print("\n=== script 2: same stream, Juggle prioritising mote 2 ===")
    script2 = parse_script(JUGGLED)
    fjord2 = script2.build(bindings={"readings": SensorFeed(trace)})
    triage = fjord2.module("triage")
    triage.set_preference(2, 10.0)
    triage.emit_quota = 1          # a slow consumer: reordering matters
    fjord2.run_until_finished()
    delivered = script2.sinks(fjord2)["out"].results

    def mean_rank(rows):
        ranks = [i for i, t in enumerate(rows) if t["sensor_id"] == 2]
        return sum(ranks) / len(ranks) if ranks else float("nan")

    arrival_order = [t for t in trace if t["temperature"] > 24]
    print(f"  {len(delivered)} hot readings delivered")
    print(f"  mean position of mote 2's readings: "
          f"{mean_rank(delivered):.1f} juggled vs "
          f"{mean_rank(arrival_order):.1f} FIFO "
          f"(lower = delivered sooner)")


if __name__ == "__main__":
    main()
