"""Host-speed calibration: scale measured times to a reference host speed.

On a shared host the CPU can switch between a fast and a slow state as often
as every second. On the 2-core virtual machine this benchmark was written
on, single-threaded work in the slow state takes 1.5 to 2 times as long, so
raw wall times of two runs differ by more than any bound worth setting.

A fixed kernel of Python integer arithmetic and small numpy uint64 array
operations, the mix of the codec's hot paths, is timed around each measured
operation. The operation's time is multiplied by REFERENCE_S over the
kernel's time there, and so reads as the time it would take on a host where
the kernel takes REFERENCE_S. The kernel does not call the codec, so a codec
change moves raw and scaled times by the same factor.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3  # kernel time that defines the reference host speed
REPEATS = 9  # kernel runs per sample; a sample is their median
INTERVAL_S = 0.2  # least time between samples inside a timed loop

clock = time.perf_counter


def _kernel() -> int:
    words = np.arange(2000, dtype=np.uint64)
    acc = 0
    for i in range(3000):
        acc += (i * 2654435761) & 0xFFFF
    for _ in range(200):
        words = (words * np.uint64(0xD2511F53)) >> np.uint64(3)
    return acc + int(words[-1])


def sample() -> float:
    """Median seconds of one kernel run, over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return statistics.median(times)


class HostSpeed:
    """Kernel samples taken through a run, each stamped with its end time."""

    def __init__(self):
        self._stamps: list[float] = []
        self._samples: list[float] = []

    def sample(self) -> None:
        value = sample()
        self._stamps.append(clock())
        self._samples.append(value)

    def sample_if_due(self) -> None:
        if not self._stamps or clock() - self._stamps[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to reference speed.

        Uses the mean of the last sample before start and the first after
        end; a sample must have been taken on each side.
        """
        before = bisect.bisect_right(self._stamps, start) - 1
        after = bisect.bisect_left(self._stamps, end)
        if before < 0 or after >= len(self._stamps):
            raise RuntimeError("no calibration sample on both sides of the interval")
        return REFERENCE_S / (0.5 * (self._samples[before] + self._samples[after]))

    def median(self) -> float:
        return statistics.median(self._samples)
