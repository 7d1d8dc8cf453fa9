"""Machine-speed probe: wall times scaled to a fixed machine speed.

The benchmark runs on shared machines whose speed changes as neighbours
contend for the cores.  A fixed 5 ms Python loop ran 1.7 times slower than
its fastest for 10 s at a time, and 1.1-1.6 times slower on average in other
2 s windows, so whole operations taken at their fastest of a few passes
still moved by 20-30 % from run to run.

While a pass runs, a timer signal every PERIOD_S runs a fixed pure-Python
loop (the probe) and records how long it took.  The probe does the
program's kind of work, Fraction arithmetic and dict stores, which tracked
the program's slowdowns better than int arithmetic or random memory reads
(perfbench/NOTES.md gives the figures).  The time of an interval is its
wall time, less the probes inside it, times REFERENCE_S over the mean probe
duration during the interval and WINDOW_S either side of it: the time the
interval would have taken on a machine that runs the probe in REFERENCE_S.
It depends only on the clock, never on how the program splits its work into
calls.  It assumes that contention slows the probe and the program by the
same factor.
"""

from __future__ import annotations

import array
import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.0025
WINDOW_S = 0.05
PROBE_STEPS = 11
# Probe time at the machine's fastest: about the least of some 11,000 probes
# over six sweep passes (26.7 us) on a 2-vCPU x86-64 VM with CPython 3.11.
# It fixes the unit, so that scaled times read close to the wall times of a
# run at the machine's full speed there.
REFERENCE_S = 27e-6


class SpeedProbe:
    """Probes the machine's speed on SIGALRM between start() and stop()."""

    def __init__(self):
        self.starts = array.array("d")
        self.durations = array.array("d")

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, PROBE_STEPS + 1):
            total += Fraction(i, i + 1)
            seen[i, i % 3] = total
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds that [t0, t1] would have taken at the reference speed."""
        starts, durations = self.starts, self.durations
        inside = durations[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)]
        around = durations[bisect.bisect_left(starts, t0 - WINDOW_S):
                           bisect.bisect_right(starts, t1 + WINDOW_S)]
        return (t1 - t0 - sum(inside)) * REFERENCE_S * len(around) / sum(around)
