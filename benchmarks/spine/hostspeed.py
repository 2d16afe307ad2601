"""A host-speed probe, for the measurements a busy CPU sets.

This sandbox runs the same code in a fast and a slow mode, seconds to
minutes at a time, whatever the program does: ``node_saturate`` absorbs
about 95k updates/s for a while, then about 65k; a run of the probe below
reads 48 us, then 65-90 us.  The drift is in building small objects —
which is what the server does per record and the simulator per event —
not in arithmetic that stays in registers.

A timing that *is* CPU work (all of ``sim_paper``, and the closed loop of
``node_saturate``, where the busy CPU sets rate and latency alike) is
therefore scaled by the host speed measured next to it: a time multiplied
by :func:`host_speed` is the time the reference host would have needed, a
rate divided by it is the reference host's rate.  Open-loop timings are
left as measured: their rate is pinned by the schedule, and the probe runs
in the load generator, not on the server's core.
"""

from __future__ import annotations

import statistics
import time

#: What :func:`speed_probe` costs on the reference host (this sandbox in a
#: calm minute).  Only its being a constant matters: it pins "speed 1.0".
REFERENCE_PROBE_NS = 50_000.0


def speed_probe() -> int:
    """Nanoseconds this host needs, right now, for a fixed piece of
    allocation-heavy interpreter work (about 0.05 ms)."""
    began = time.perf_counter_ns()
    table = {}
    for value in range(500):
        table[value] = (value, float(value), [value])
    total = 0
    for item in table.values():
        total += item[2][0]
    return time.perf_counter_ns() - began


def probe_burst(count: int) -> float:
    """Median of ``count`` back-to-back probes, in nanoseconds.

    Back to back because a core that has just woken up is slower for a
    few probes; the median of a burst reads the busy speed.
    """
    return statistics.median(speed_probe() for _ in range(count))


def host_speed(burst_medians_ns: "list[float]") -> float:
    """Host speed relative to the reference host (> 1 is faster) over a
    stretch of time, from the medians of the bursts taken in it."""
    return REFERENCE_PROBE_NS / statistics.median(burst_medians_ns)
