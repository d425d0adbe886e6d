"""Host-speed scaling for the benchmark's timings.

On a shared host the speed a run gets switches every few milliseconds
between a fast state and one roughly 1.6x slower (contention from
other tenants), the share of time spent in each drifts over tens of
minutes, and the fast state's own speed drifts by about 10%.  Raw wall
times of the same code therefore move by up to a third between two
sets of runs, and no minimum or quantile over passes or ops of tens of
milliseconds or more can separate the program's speed from the host's:
every such interval mixes both states.

:class:`Sampler` measures the host's speed while the program runs: a
``SIGALRM`` interval timer interrupts the main thread every
millisecond and times a fixed pure-Python loop of about ten
microseconds.  An interval of ``t`` host seconds whose samples cost
``cost`` each is reported as ``t * mean(REFERENCE_COST / cost)``: the
host seconds it would have taken on a host that runs the loop in
:data:`REFERENCE_COST`, so the time of the program's work in units of
the loop's.  A fixed reference, rather than the fastest sample of the
run, also cancels drift of the fast state.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

#: Seconds between samples.
INTERVAL = 0.001
#: Iterations of the timed loop in one sample.
LOOP = 150
#: Host seconds of one sample's loop on the reference host: about its
#: cost on an uncontended 2 GHz Xeon vCPU under CPython 3.11.
REFERENCE_COST = 10e-6


class Sampler:
    """Times a fixed loop every :data:`INTERVAL` host seconds while
    started.  Only one sampler may run in a process at a time."""

    def __init__(self) -> None:
        # Flat arrays, so that memory grows little with run length.
        self.stamps = array("d")
        self.costs = array("d")
        self._prefix = array("d")

    def _tick(self, _signum, _frame) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        self.stamps.append(started)
        self.costs.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        total = 0.0
        self._prefix = array("d", [0.0])
        for cost in self.costs:
            total += 1.0 / cost
            self._prefix.append(total)

    def mean_speed(self, start: float = float("-inf"),
                   end: float = float("inf")) -> float:
        """Mean of ``1 / cost`` over the samples taken in
        ``[start, end)``; an interval without samples takes the samples
        either side of it."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_left(self.stamps, end)
        if hi <= lo:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.stamps))
        if hi <= lo:
            raise RuntimeError("no host-speed samples")
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def scaled(self, start: float, end: float) -> float:
        """Host seconds ``[start, end)`` would have taken on the
        reference host."""
        return (end - start) * REFERENCE_COST * self.mean_speed(start, end)

