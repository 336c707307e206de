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
