"""A fixed pure-Python task that measures the host's speed.

The host shares its cores with other tenants, and its speed on pure-Python
work changes by up to 2x for minutes at a time, for udp6 and for this task
alike, in CPU time as much as in wall time.  No run short enough for the
benchmark's budget averages that out, so run.py times this task around and
inside every job and reports job times at the reference speed:
wall time x REFERENCE_S / probe time.  The task calls nothing in udp6, so a
change to udp6 cannot move it, and a slower udp6 shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque
from fractions import Fraction

# this task's wall time on the reference host (2-core x86_64, Python 3.11) in
# a calm period; it sets the scale of the reported seconds
REFERENCE_S = 0.0035
# probes inside a job: often enough for a few in a 0.5-second job, rarely
# enough to take under 2% of it
PROBE_EVERY_S = 0.2
WINDOW_S = 0.5


def probe() -> float:
    """Wall seconds of the fixed task: Fraction sums and max-updates in a dict."""
    t0 = time.perf_counter()
    acc, best = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        best[i & 255] = max(best.get(i & 255, 0), i * 3 % 17)
    return time.perf_counter() - t0


class Sampler:
    """Speed probes between and inside timed jobs.

    One probe follows every job, and ``with sampler:`` adds one every
    PROBE_EVERY_S from a SIGALRM handler while a job runs, so a job of several
    seconds is not judged by the host's speed at its two ends alone.  A job's
    host speed is the median of the probes from WINDOW_S before it started to
    just after it ended: some twenty probes for a 15 ms job, where the two
    at its ends alone would misread it by 10-20%.
    """

    def __init__(self):
        self.probes = deque()  # (perf_counter at the end of the probe, probe seconds)
        self.start = 0.0
        self._probe()
        signal.signal(signal.SIGALRM, lambda *_: self._probe())

    def _probe(self) -> float:
        t = probe()
        self.probes.append((time.perf_counter(), t))
        return t

    def __enter__(self):
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference_time(self, wall: float) -> float:
        """The job's wall time less the probes inside it, at the reference speed."""
        after = self._probe()
        while self.probes[0][0] < self.start - WINDOW_S:
            self.probes.popleft()
        inside = sum(t for end, t in self.probes if end > self.start) - after
        speed = statistics.median(t for _, t in self.probes)
        return (wall - inside) * REFERENCE_S / speed
