"""Host-speed probe: a fixed pure-Python workload timed between steps.

On a host whose cores are shared with other tenants, the speed of a single
Python thread drifts by tens of percent within seconds.  Measured on a shared
two-core x86-64 VM (Python 3.11), one incrementor pass at s = 8 took from 34
to 56 ms in consecutive 6-second windows (IQR over median 0.31), while its
ratio to this probe, timed alternately with it, had an IQR over median of
0.06.

The benchmark times the probe before the first step of a cycle and after
every step, and scales each step's timings by ``REFERENCE_S`` over the median
of the probes nearest it: the time the step would take on a host where the
probe takes ``REFERENCE_S``.  Wall-clock values are reported too.
"""
from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.010
ROUNDS = 30_000


def probe() -> float:
    """Seconds for a fixed round of tuple hashing and dict updates, the
    operations the engine spends most of its time in."""
    t0 = perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(ROUNDS):
        key = (i & 1023, i % 7)
        counts[key] = counts.get(key, 0) + i
    return perf_counter() - t0

