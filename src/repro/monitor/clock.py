"""The single monotonic clock source for all observability layers.

End-to-end tuple traces (:mod:`repro.monitor.tracing`), the routing
flight recorder, Flux recovery timings and the network service's
liveness checks must be mutually comparable — a hop timestamp means the
same instant everywhere.  That only holds if they all read the *same*
clock, so they import :func:`now` from here instead of picking a
``time`` function independently.

``perf_counter`` is monotonic and the highest-resolution clock the
stdlib offers; its epoch is arbitrary, so exporters that need wall time
anchor with :func:`wall_time` once and offset.
"""

from __future__ import annotations

import time

#: Monotonic, high-resolution timestamp in (fractional) seconds.
now = time.perf_counter


def wall_time() -> float:
    """Wall-clock seconds since the Unix epoch, for anchoring exports."""
    return time.time()
