"""Shared helpers for the benchmark harness.

Every benchmark file regenerates one figure or prose claim of the paper
(see DESIGN.md section 4).  Conventions:

* ``test_*_shape`` functions check the *qualitative* claim (who wins, by
  roughly what factor) and print the series as rows — run with ``-s`` to
  see them;
* plain ``test_*`` functions carry pytest-benchmark timings of the hot
  path, so regressions are visible run to run.

Run everything:  pytest benchmarks/ --benchmark-only
Shapes only:     pytest benchmarks/ -k shape -s
"""

from __future__ import annotations

import json
import os
import time

import pytest

#: Machine-readable results land next to the repo root as
#: ``BENCH_<name>.json`` so the perf trajectory is tracked across PRs.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: False under pytest-benchmark's ``--benchmark-disable`` (and no
#: ``--benchmark-enable``): a run that only checks shapes records
#: nothing, so it leaves the tracked ``BENCH_*.json`` files as they are.
_recording = True


def pytest_configure(config: pytest.Config) -> None:
    global _recording
    _recording = not config.getoption("benchmark_disable", False) \
        or bool(config.getoption("benchmark_enable", False))


def record_result(name: str, params: dict, throughput: float,
                  wall_clock_s: float, **extra) -> str:
    """Append one machine-readable benchmark result to
    ``BENCH_<name>.json``.

    Each entry records the benchmark name, its parameters, throughput
    (tuples/s unless the benchmark says otherwise), and wall clock; the
    file accumulates a list so successive PRs' runs diff cleanly.
    Returns the path written; under ``--benchmark-disable`` nothing is
    written.
    """
    path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
    if not _recording:
        return path
    entry = {
        "name": name,
        "params": params,
        "throughput": round(float(throughput), 2),
        "wall_clock_s": round(float(wall_clock_s), 6),
        "recorded_at": int(time.time()),
    }
    entry.update(extra)
    results = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                results = json.load(fh)
            if not isinstance(results, list):
                results = [results]
        except (OSError, ValueError):
            results = []
    results.append(entry)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def print_table(title: str, header: list, rows: list) -> None:
    """Render one experiment's series the way the paper would tabulate
    it.  Visible under ``pytest -s``."""
    widths = [max(len(str(h)), max((len(f"{r[i]:.4g}" if
                                        isinstance(r[i], float)
                                        else str(r[i]))
                                   for r in rows), default=0))
              for i, h in enumerate(header)]

    def fmt(row):
        cells = []
        for i, cell in enumerate(row):
            text = f"{cell:.4g}" if isinstance(cell, float) else str(cell)
            cells.append(text.rjust(widths[i]))
        return "  ".join(cells)

    print(f"\n== {title} ==")
    print(fmt(header))
    for row in rows:
        print(fmt(row))
