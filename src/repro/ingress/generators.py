"""Synthetic workload generators.

The paper's target data sources — sensor networks, network monitors,
stock feeds, web sources — are not available offline, so every benchmark
runs against synthetic streams whose *statistical knobs* (arrival rate,
burstiness, value drift, skew, selectivity) are controlled explicitly.
This preserves the behaviour the evaluation claims depend on: what
matters to an adaptive engine is the shape of the data, not its
provenance (see DESIGN.md, substitution table).

All generators are deterministic under a seed.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.core.tuples import Schema, Tuple, TupleBatch

#: Schema used by the paper's running example (Section 4.1): one row per
#: stock per trading day.
CLOSING_STOCK_PRICES = Schema.of(
    "ClosingStockPrices", "timestamp", "stockSymbol", "closingPrice")

#: Sensor readings in the spirit of the Fjords/TinyDB motivating apps.
SENSOR_READINGS = Schema.of(
    "SensorReadings", "ts", "sensor_id", "temperature", "voltage")

#: A network-monitor stream (Tribeca-style packet summaries).
PACKET_SUMMARIES = Schema.of(
    "PacketSummaries", "ts", "src", "dst", "port", "bytes")


class StockStreamGenerator:
    """Daily closing prices: a random walk per symbol.

    Produces one tuple per (day, symbol); timestamps are trading-day
    numbers starting at 1, matching the paper's examples.  ``drift_at``
    optionally makes every symbol's price jump at a given day, which the
    eddy-adaptivity experiments use to move predicate selectivities
    mid-stream.
    """

    def __init__(self, symbols: Sequence[str] = ("MSFT", "IBM", "ORCL",
                                                 "INTC", "AAPL"),
                 seed: int = 0, start_price: float = 50.0,
                 volatility: float = 1.0,
                 drift_at: Optional[int] = None, drift_by: float = 0.0):
        self.symbols = list(symbols)
        self.seed = seed
        self.start_price = start_price
        self.volatility = volatility
        self.drift_at = drift_at
        self.drift_by = drift_by
        self.schema = CLOSING_STOCK_PRICES

    def days(self, n_days: int) -> Iterator[Tuple]:
        rng = random.Random(self.seed)
        prices = {s: self.start_price for s in self.symbols}
        for day in range(1, n_days + 1):
            if self.drift_at is not None and day == self.drift_at:
                for s in prices:
                    prices[s] += self.drift_by
            for sym in self.symbols:
                prices[sym] = max(
                    0.01, prices[sym] + rng.gauss(0.0, self.volatility))
                yield self.schema.make(day, sym, round(prices[sym], 2),
                                       timestamp=day)

    def take(self, n_days: int) -> List[Tuple]:
        return list(self.days(n_days))


class SensorStreamGenerator:
    """Temperature/voltage readings from ``n_sensors`` simulated motes.

    ``failure_rate`` drops readings (sensors "may have run out of power
    or temporarily disconnected"); ``anomaly_rate`` injects hot readings
    the monitoring examples alert on.
    """

    def __init__(self, n_sensors: int = 8, seed: int = 0,
                 base_temp: float = 20.0, failure_rate: float = 0.0,
                 anomaly_rate: float = 0.0, anomaly_delta: float = 25.0):
        self.n_sensors = n_sensors
        self.seed = seed
        self.base_temp = base_temp
        self.failure_rate = failure_rate
        self.anomaly_rate = anomaly_rate
        self.anomaly_delta = anomaly_delta
        self.schema = SENSOR_READINGS

    def ticks(self, n_ticks: int) -> Iterator[Tuple]:
        rng = random.Random(self.seed)
        for ts in range(1, n_ticks + 1):
            for sensor in range(self.n_sensors):
                if self.failure_rate and rng.random() < self.failure_rate:
                    continue
                temp = self.base_temp + 3.0 * math.sin(
                    (ts + sensor) / 10.0) + rng.gauss(0.0, 0.5)
                if self.anomaly_rate and rng.random() < self.anomaly_rate:
                    temp += self.anomaly_delta
                voltage = max(0.0, 3.0 - ts * 1e-4 + rng.gauss(0.0, 0.01))
                yield self.schema.make(ts, sensor, round(temp, 3),
                                       round(voltage, 4), timestamp=ts)

    def take(self, n_ticks: int) -> List[Tuple]:
        return list(self.ticks(n_ticks))


class PacketStreamGenerator:
    """Network-monitor records with Zipf-skewed sources.

    The skew parameter drives the Flux load-balancing experiments: a
    hash partitioning over a Zipf key distribution is exactly the
    workload where static Exchange falls over.
    """

    def __init__(self, n_hosts: int = 100, n_ports: int = 16,
                 zipf_s: float = 0.0, seed: int = 0,
                 burst_every: int = 0, burst_factor: int = 5):
        self.n_hosts = n_hosts
        self.n_ports = n_ports
        self.zipf_s = zipf_s
        self.seed = seed
        self.burst_every = burst_every
        self.burst_factor = burst_factor
        self.schema = PACKET_SUMMARIES
        self._weights = self._zipf_weights()

    def _zipf_weights(self) -> List[float]:
        if self.zipf_s <= 0.0:
            return [1.0] * self.n_hosts
        return [1.0 / (rank ** self.zipf_s)
                for rank in range(1, self.n_hosts + 1)]

    def packets(self, n_packets: int) -> Iterator[Tuple]:
        rng = random.Random(self.seed)
        ts = 0
        emitted = 0
        while emitted < n_packets:
            ts += 1
            burst = 1
            if self.burst_every and ts % self.burst_every == 0:
                burst = self.burst_factor
            for _ in range(burst):
                if emitted >= n_packets:
                    break
                src = rng.choices(range(self.n_hosts),
                                  weights=self._weights)[0]
                dst = rng.randrange(self.n_hosts)
                port = rng.randrange(self.n_ports)
                size = rng.randint(40, 1500)
                yield self.schema.make(ts, f"h{src}", f"h{dst}", port, size,
                                       timestamp=ts)
                emitted += 1

    def take(self, n_packets: int) -> List[Tuple]:
        return list(self.packets(n_packets))


class DriftingSelectivityGenerator:
    """A single-column stream whose value distribution flips mid-stream.

    Built for the E1/E8 adaptivity experiments: before ``flip_at`` the
    column ``a`` is mostly small and ``b`` mostly large; afterwards they
    swap, so any plan frozen against the initial selectivities orders
    its filters wrong for the remainder.
    """

    def __init__(self, seed: int = 0, flip_at: int = 0,
                 low_pass: float = 0.1, high_pass: float = 0.9):
        self.schema = Schema.of("drift", "a", "b")
        self.seed = seed
        self.flip_at = flip_at
        self.low_pass = low_pass
        self.high_pass = high_pass

    def take(self, n: int) -> List[Tuple]:
        rng = random.Random(self.seed)
        out: List[Tuple] = []
        for i in range(n):
            flipped = self.flip_at and i >= self.flip_at
            a_pass = self.high_pass if flipped else self.low_pass
            b_pass = self.low_pass if flipped else self.high_pass
            a = 1 if rng.random() < a_pass else 0
            b = 1 if rng.random() < b_pass else 0
            out.append(self.schema.make(a, b, timestamp=i))
        return out

    def take_batches(self, n: int, batch_size: int) -> List[TupleBatch]:
        """Columnar ingress: the same stream as :meth:`take` (identical
        value sequence under the same seed) packed straight into
        column-backed batches (list slices of the two columns); no
        per-row Tuple objects are minted.
        """
        rng = random.Random(self.seed)
        a_col: List[int] = []
        b_col: List[int] = []
        for i in range(n):
            flipped = self.flip_at and i >= self.flip_at
            a_pass = self.high_pass if flipped else self.low_pass
            b_pass = self.low_pass if flipped else self.high_pass
            a_col.append(1 if rng.random() < a_pass else 0)
            b_col.append(1 if rng.random() < b_pass else 0)
        return [TupleBatch(self.schema,
                           [a_col[s:s + batch_size], b_col[s:s + batch_size]],
                           list(range(s, min(s + batch_size, n))))
                for s in range(0, n, batch_size)]


def replicate_for_alias(tuples: Iterable[Tuple], alias: str) -> List[Tuple]:
    """Re-schema tuples under an alias, for self-joins (the paper's
    temporal band-join declares ClosingStockPrices as c1 and c2)."""
    out: List[Tuple] = []
    alias_schema: Optional[Schema] = None
    for t in tuples:
        if alias_schema is None:
            alias_schema = Schema(t.schema.columns, name=alias)
        clone = Tuple(alias_schema, t.values, timestamp=t.timestamp)
        out.append(clone)
    return out
