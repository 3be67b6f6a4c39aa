"""Host speed: a fixed reference kernel timed beside the program.

The benchmark runs on shared hosts whose speed changes under it. On the
2-vCPU guest the README names, a fixed pure-Python loop took anywhere
from 10.6 to 17.3 ms per call within four minutes, switching every few
seconds, and CPU time moved with wall time, so neither clock can tell
the program's cost from the host's. A :class:`HostSpeed` times a fixed
kernel, an interpreted loop over ints and a dict, at moments when the
program is idle, every ``EVERY_S`` of a phase. Each duration the
benchmark reports is scaled by ``REFERENCE_S`` over the median of the
``NEAREST`` kernel samples around it, so it reads what it would have on
a host that runs the kernel in exactly ``REFERENCE_S``. The kernel never
calls the program, so a change to the program moves the scaled times
exactly as much as the raw ones.

Scaled by the kernel samples nearest in time, the median latency of 15 s
stretches of sql-rw spread 7% instead of 34%, and of fewshot-prefill 4%
instead of 9%. A kernel of small numpy matrix products tracked worse:
it slowed more than the program did when the host slowed.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List, Sequence, Tuple

clock = time.perf_counter

#: the kernel's time on the reference host; this one took 0.42 to 0.65 ms
REFERENCE_S = 0.5e-3
#: least time between two samples of a phase: under 1% of its time
EVERY_S = 0.1
#: samples whose median scales a duration: about half a second of phase
NEAREST = 5
#: samples taken at each point of set-up
SETUP_SAMPLES = 5


def kernel() -> int:
    """About half a millisecond of fixed interpreted work."""
    total = 0
    table = {}
    for i in range(5000):
        total += i * i
        table[i & 63] = total
    return total + len(table)


class HostSpeed:
    """Timed kernel samples of one phase (or of one set-up).

    ``samples`` holds ``(time, kernel seconds)`` pairs in time order;
    ``spent`` is the time sampling took, which a closed loop takes off
    its elapsed time.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            began = clock()
            # The first run refills the caches the program's last
            # operation took over, which made a single run 5% to 8%
            # slower; the second run is the one timed, so the sample
            # tracks the host, not the program's memory footprint.
            kernel()
            timed = clock()
            kernel()
            done = clock()
            self.samples.append((done, done - timed))
            self.spent += done - began
        self._last = clock()

    def tick(self) -> None:
        """Sample once if ``EVERY_S`` has passed since the last sample."""
        if clock() - self._last >= EVERY_S:
            self.sample()

    def overall_factor(self) -> float:
        """``REFERENCE_S`` over the median of every sample: the factor
        for one operation that lasted through all of them."""
        return self.factors([0.0], nearest=len(self.samples))[0]

    def factors(self, times: Sequence[float], nearest: int = NEAREST) -> List[float]:
        """For each time, ``REFERENCE_S`` over the median of the
        ``nearest`` samples around it."""
        if not self.samples:
            raise ValueError("no kernel samples: the host's speed is unknown")
        stamps = [t for t, _ in self.samples]
        width = min(nearest, len(stamps))
        out = []
        for t in times:
            first = bisect.bisect(stamps, t) - width // 2
            first = max(0, min(first, len(stamps) - width))
            window = self.samples[first:first + width]
            out.append(REFERENCE_S / statistics.median(k for _, k in window))
        return out
