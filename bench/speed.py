"""Machine speed, sampled all through a benchmark process.

The benchmark machine may be shared: the same pure-Python work can take
tens of percent longer from one tenth of a second to the next, and the
slowdown follows the process into every job.  A SpeedSampler times a fixed
pure-Python loop (`probe`) every INTERVAL_S on SIGALRM, whatever the
process is doing at that moment.  Probe time is kept off the benchmark's
clock (`now`), and a time measured over an interval is scaled to the
reference speed by the median probe time in that interval (`scale`), so
that figures read as if the machine had run at one speed.

On the machine the benchmark was written on, the time of a 2-4 s stretch
of any workload rose in proportion to the probe's time (log-log slope
0.9-1.0 over 10-14 stretches each), and scaling halved the stretches'
spread (standard deviation of log time 0.11-0.14 before, 0.06-0.07
after).  Probes of exact rational arithmetic, dict building or scattered
list reads swung about twice as much as the workloads did.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
# An interval with fewer probes is judged by the MIN_PROBES probes nearest to it.
MIN_PROBES = 5
# The probe's time on an idle core of the machine the benchmark was written
# on (2-vCPU Xeon VM, CPython 3.11).  Only ratios between runs matter.
REF_PROBE_S = 0.0012


def probe() -> None:
    total = 0
    for i in range(20000):
        total += i * i % 7


class SpeedSampler:
    def __init__(self):
        self.lost = 0.0  # seconds spent probing so far
        self.at: list[float] = []  # start of each probe, on the `now` clock
        self.took: list[float] = []  # duration of each probe
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.at.append(t0 - self.lost)
        self.took.append(t1 - t0)
        self.lost += t1 - t0
        self._busy = False

    def fill(self, count: int = MIN_PROBES) -> None:
        """Probe now until at least `count` probes have been taken."""
        while len(self.took) < count:
            self._sample()

    def now(self) -> float:
        """time.perf_counter() minus the time spent probing."""
        return time.perf_counter() - self.lost

    def probe_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median probe time in [start, end] of the `now` clock."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or start - self.at[lo - 1] <= self.at[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.took[lo:hi])

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor that turns a time measured in [start, end] into reference-speed time."""
        return REF_PROBE_S / self.probe_s(start, end)
