"""The reference loop the end-to-end times are expressed in.

The host this benchmark was tuned on gives it two cores of a shared
machine whose speed moves by up to 1.5x over minutes, as other tenants
come and go.  Raw times of identical work then spread by 20-30% between
runs.  So the benchmark reads the CPU time of one fixed pure-Python
loop on its own thread next to the work it times (before each batch or
training step, and every 100 ms while the serving threads run), and the
end-to-end figures are given in units of that loop.  The loop does not
touch the program, so any change to the program shows in full.
"""

from __future__ import annotations

import statistics
import time

# About 1 ms on a 2-core x86 VM.
ITERATIONS = 6000
SAMPLES = 3   # loops per reading; the median is kept


def loop_s() -> float:
    """CPU seconds this thread spends in one run of the reference loop now.

    CPU time rather than wall time: a reading taken while other threads
    of the process hold the GIL does not count the wait.
    """
    start = time.thread_time()
    total = 0
    seen: dict[int, int] = {}
    items: list[int] = []
    for i in range(ITERATIONS):
        total += (i * i) % 7
        seen[i & 127] = total
        if i & 15 == 0:
            items.append(total)
    if len(items) != ITERATIONS // 16 or len(seen) != 128:
        raise AssertionError("reference loop did not run in full")
    return time.thread_time() - start


class Reference:
    """Readings of the reference loop taken during one run."""

    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> float:
        """Seconds of one reference loop now: the median of ``SAMPLES`` runs."""
        reading = statistics.median(loop_s() for _ in range(SAMPLES))
        self.readings.append(reading)
        return reading

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(self.readings)
