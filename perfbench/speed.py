"""Machine-speed reference for the fracext benchmark.

The benchmark runs on a shared virtual machine whose speed drifts by 10-20%
over minutes, has bursts of a few seconds that run 25% faster, and now and
then drops to about 60% for a minute or more; a workload's operations
follow that drift from run to run.  A fixed pure-Python loop, timed in the
same process throughout the measured section, follows it too, so the ratio
of the two stays put.  The benchmark reports its times scaled to the
machine speed at which this loop takes NOMINAL_S:

    reported time = measured time * NOMINAL_S / (median loop time near it)

where "near" is within WINDOW_S of the operation, so that bursts of a few
seconds are scaled away as well as the drift between runs.

The loop runs no fracext code, so a change to the program moves the
program's times and leaves the scale alone.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

# The loop's median time on the 2-core Intel Xeon virtual machine the
# baseline was measured on, so scaled times read as that machine's seconds
# at its typical speed.
NOMINAL_S = 0.0100
INTERVAL_S = 0.25   # wall time between two samples of the running workload
WINDOW_S = 2.0      # an operation is scaled by the samples this close to it


def reference_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples of the reference loop's time on the machine as it runs now.

    `sample()` takes samples on the spot.  Used as a context manager, the
    probe also takes one every INTERVAL_S of wall time from a SIGALRM
    handler, in the middle of the program's operations as well, and adds the
    handler's own wall time to `spent_s` so that callers can take it out of
    the operations it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []     # perf_counter at each sample, ascending
        self.spent_s = 0.0
        self._previous = None

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.samples.append(reference_s())

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that turns measured times into nominal-speed times."""
        return NOMINAL_S / statistics.median(self.samples)

    def nominal_s(self, t0: float, t1: float, spent: float) -> float:
        """Nominal-speed time of an operation that ran from t0 to t1
        (perf_counter) and spent `spent` of that in the handler, scaled by
        the samples taken within WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        local = self.samples[lo:hi] or self.samples
        return (t1 - t0 - spent) * NOMINAL_S / statistics.median(local)
