"""monitor subpackage of the TelegraphCQ reproduction.

Five layers:

* :mod:`repro.monitor.stats` — per-component online estimators
  (selectivity, rate, drift);
* :mod:`repro.monitor.qos` — the load-shedding QoS controller;
* :mod:`repro.monitor.telemetry` — the process-wide metrics registry
  every subsystem publishes through, with JSON and Prometheus
  exporters;
* :mod:`repro.monitor.tracing` — sampled end-to-end tuple traces
  (ingress→egress hop records, latency watermarks, JSONL/Chrome
  exporters);
* :mod:`repro.monitor.introspect` — the eddy routing flight recorder
  and live EXPLAIN [ANALYZE] reconstruction.
"""

from repro.monitor.qos import LoadShedder
from repro.monitor.stats import RateEstimator, SelectivityTracker
from repro.monitor.telemetry import (Counter, Gauge, Histogram,
                                     MetricFamily, MetricRegistry,
                                     SeriesSample, TelemetrySnapshot,
                                     get_registry,
                                     register_global_collector,
                                     set_registry)
from repro.monitor.tracing import (Hop, TraceContext, Tracer,
                                   configure_tracing, get_tracer,
                                   latency_by_query)
from repro.monitor.introspect import (FlightRecorder, RoutingDecision,
                                      explain_eddy, get_flight_recorder,
                                      render_explain)

__all__ = [
    "Counter", "FlightRecorder", "Gauge", "Histogram",
    "Hop", "LoadShedder", "MetricFamily",
    "MetricRegistry", "RateEstimator", "RoutingDecision",
    "SelectivityTracker", "SeriesSample", "TelemetrySnapshot",
    "TraceContext", "Tracer", "configure_tracing",
    "explain_eddy", "get_flight_recorder", "get_registry", "get_tracer",
    "latency_by_query", "register_global_collector", "render_explain",
    "set_registry",
]
