"""Host-speed correction for every time the benchmark reports.

The benchmark runs on shared machines whose CPU speed drifts by 20-70%
for seconds to minutes at a time as neighbours load them; a fixed
interpreter loop slows down as much as the workload does, so raw wall
times of identical runs can differ by more than any useful bound.  The
probe times a small fixed kernel (an interpreter loop plus array
arithmetic, about 1 ms) next to the workload, and each measured time is
scaled to the probe's reference speed::

    reported = measured * PROBE_REFERENCE_S / local probe time

where the local probe time is the median of the probes taken within
``LOCAL_S`` seconds of the measurement.  The probe belongs to the
benchmark, not to the program, so a change to the program moves only
the measured side.  ``slowdown()`` (reported per layer as
``host.slowdown``) says how much slower than the reference the host ran.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: the probe kernel's time on an undisturbed 2-vCPU host of the kind the
#: baseline in ``results/`` was recorded on; reported times are "as if
#: the host ran at this speed"
PROBE_REFERENCE_S = 0.0008
#: probes within this many seconds of a measurement estimate its speed
LOCAL_S = 0.25

_ARRAY = np.linspace(0.0, 1.0, 16_384)


def _kernel() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(6_000):
        total += i * i
    a = _ARRAY
    for _ in range(8):
        a = np.sqrt(np.abs(a - 0.5) + a * 0.5)
    return time.perf_counter() - started


class SpeedProbe:
    """Probe samples on one monotonic clock, and the scale they imply."""

    def __init__(self):
        self._at: list[float] = []
        self._seconds: list[float] = []

    def sample(self, now: float | None = None) -> None:
        """Time the kernel once; ``now`` stamps it on the caller's clock
        (``time.perf_counter()`` by default)."""
        at = time.perf_counter() if now is None else now
        self._seconds.append(_kernel())
        self._at.append(at)

    def scale(self, start: float, end: float) -> float:
        """Reference over local probe time for a measurement spanning
        ``start..end`` (same clock as the samples)."""
        lo = bisect.bisect_left(self._at, start - LOCAL_S)
        hi = bisect.bisect_right(self._at, end + LOCAL_S)
        if lo == hi:  # nothing that close: take the nearest sample
            lo = min(lo, len(self._at) - 1)
            hi = lo + 1
        return PROBE_REFERENCE_S / statistics.median(self._seconds[lo:hi])

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on an idle host."""
        return statistics.median(self._seconds) / PROBE_REFERENCE_S
