"""Interpreter-speed calibration for a shared machine.

On a shared host, other tenants' load slows this process's CPU in
episodes lasting from under a second to tens of seconds (about 1.5-1.9x
for interpreter-bound code), far more than the effects the benchmark
must resolve.  :class:`SpeedMeter` runs a fixed, allocation-free burst
of interpreter work on a background thread every ``INTERVAL_S`` and
times it in thread CPU time; a span of the run (a request, a set-up) is
rescaled by ``REFERENCE_S / (median burst cost during the span)``, i.e.
reported at the speed the calibration runs at on a quiet machine.
Thread CPU time excludes time spent waiting for the GIL or the OS, so
only a genuinely slower CPU moves the calibration.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from types import TracebackType

__all__ = ["REFERENCE_S", "SpeedMeter", "calibration_seconds"]

#: Cost of one :func:`calibration_seconds` burst, taken every 0.1 s
#: during a benchmark run on a quiet machine (the 2-vCPU Xeon virtual
#: machine the baseline was measured on).  Only the scale of reported
#: times depends on it: there, an uncontended request reports its raw
#: latency.
REFERENCE_S = 2.6e-4

#: Seconds between bursts.
INTERVAL_S = 0.1
#: Bursts this close (s) to a span also describe its speed.
WINDOW_S = 0.25

# Keys and a table reused by every burst: the loop allocates no
# GC-tracked object, so a burst never triggers a collection.
_KEYS = tuple((i % 97, f"k{i % 13}") for i in range(512))
_ROUNDS = 6


def calibration_seconds() -> float:
    """Thread CPU seconds one fixed burst of dict and tuple work takes."""
    table: dict[tuple[int, str], int] = {}
    started = time.thread_time()
    for _ in range(_ROUNDS):
        for key in _KEYS:
            table[key] = table.get(key, 0) + 1
    return time.thread_time() - started


class SpeedMeter:
    """Background calibration bursts while the ``with`` block runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-meter", daemon=True
        )

    def _sample(self) -> None:
        cost = calibration_seconds()
        self.times.append(time.perf_counter())
        self.costs.append(cost)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median burst cost within ``WINDOW_S``
        of the span [start, end] (the nearest burst if none).  Call after
        the ``with`` block has ended."""
        if not self.times:
            raise ValueError("no calibration bursts taken")
        low = bisect.bisect_left(self.times, start - WINDOW_S)
        high = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.costs[low:high]
        if not window:
            nearest = min(
                range(len(self.times)),
                key=lambda i: min(abs(self.times[i] - start), abs(self.times[i] - end)),
            )
            window = [self.costs[nearest]]
        return REFERENCE_S / statistics.median(window)
