"""Machine-speed meter: turns measured seconds into seconds at a fixed speed.

The benchmark's host is shared, and its speed changes by up to half within
seconds as other tenants come and go, for CPU time as much as for wall time.
rrw's jobs and a small loop of the same kind of interpreter work slow down
by nearly the same factor (their ratio stayed within a few per cent over
10-second windows while the speed itself moved by a third), so the meter
runs such a reference loop on a timer, every ``INTERVAL`` seconds, in the
benchmark's own thread, and keeps the start and duration of each run of it.
:meth:`SpeedMeter.reference_seconds` then scales an interval by the mean
speed the loop saw around it, with the meter's own samples taken out:

    reference seconds = (measured seconds - samples inside) * mean(NOMINAL_S / sample)

``NOMINAL_S`` is the loop's time on an idle 2-vCPU x86-64 VM with
Python 3.11, so a reference second is about a second on such a machine.
"""

from __future__ import annotations

import bisect
import signal
import time

# Seconds between samples, and the margin on each side of an interval whose
# samples set its speed. The margin gives even a sub-millisecond job a
# couple of dozen samples.
INTERVAL = 0.02
MARGIN = 0.25

REFERENCE_ROUNDS = 150
NOMINAL_S = 0.00022


def reference_loop(rounds=REFERENCE_ROUNDS):
    """Builds short words as tuples and collects them in sets: the
    allocation, hashing and set work that rrw's searches are made of."""
    words = set()
    for i in range(rounds):
        word = tuple("ab"[(i >> k) & 1] for k in range(i % 7))
        words.add(word)
        words |= {word + ("a",)}
    return len(words)


class SpeedMeter:
    """Samples the reference loop on SIGALRM while it is entered.

    Use it as a context manager around the timed work; read the samples with
    :meth:`reference_seconds` after it has been left.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def measured_seconds(self, t0, t1):
        """The interval [t0, t1] of ``time.perf_counter`` without the
        samples taken inside it."""
        starts = self.starts
        return t1 - t0 - sum(self.durations[bisect.bisect_left(starts, t0):
                                            bisect.bisect_right(starts, t1)])

    def reference_seconds(self, t0, t1):
        """:meth:`measured_seconds` in seconds at the reference speed."""
        starts, durations = self.starts, self.durations
        if not starts:
            raise ValueError("the meter took no samples")
        lo = bisect.bisect_left(starts, t0 - MARGIN)
        hi = bisect.bisect_right(starts, t1 + MARGIN)
        if lo == hi:  # no sample near: the nearest one on either side
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        near = durations[lo:hi]
        speed = sum(NOMINAL_S / d for d in near) / len(near)
        return self.measured_seconds(t0, t1) * speed
