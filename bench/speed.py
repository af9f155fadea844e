"""Correct a pass's wall time for the machine's momentary speed.

On a shared host the same pure-Python work runs up to ~1.6x slower in one
stretch of seconds than in the next (other tenants, frequency), and a pass
of 15-50 s sees only a few such stretches.  `SpeedProbe` runs a fixed
pure-Python reference loop from a SIGALRM handler every 20 ms, in the
measured thread itself, so each probe sees the speed the program saw just
before it.  `reference_seconds` then scales each stretch of program time by
REFERENCE_PROBE_S / (the median duration of the probe that ends it and its
nearest neighbours): the result is the pass's time at the speed where one
probe takes REFERENCE_PROBE_S.  The probes' own time is left out.  Whether
a program change moves the corrected time as it moves the wall time was
checked with injected pure-Python and numpy costs; bench/NOTES.md has the
figures.
"""

from __future__ import annotations

import signal
import statistics
import time

# A probe's duration at the reference speed: a typical figure on the machine
# of bench/NOTES.md, so the corrected times read close to its wall times.
REFERENCE_PROBE_S = 6e-4
INTERVAL_S = 0.02
SMOOTH_PROBES = 5


def reference_work():
    d = {}
    acc = 0.0
    for i in range(1500):
        k = (i & 63, i & 7)
        d[k] = d.get(k, 0.0) + i * 0.5
        acc += len(k)
    return acc


class SpeedProbe:
    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []        # (start, duration) of each probe
        self._old_handler = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _speeds(self):
        """Each probe's duration, smoothed: the median over it and its
        SMOOTH_PROBES - 1 nearest neighbours, so one preempted probe does
        not rescale its stretch."""
        durations = [d for _, d in self.samples]
        half = SMOOTH_PROBES // 2
        return [statistics.median(durations[max(i - half, 0):i + half + 1])
                for i in range(len(durations))]

    def reference_seconds(self, start, end, reference=REFERENCE_PROBE_S):
        """Program time in [start, end], probes excluded, at reference
        speed.  The stretch before each probe is scaled by that probe's
        smoothed duration; the tail after the last one by the last one."""
        probes = [(s, d, speed) for (s, d), speed
                  in zip(self.samples, self._speeds())]
        inside = [p for p in probes if start <= p[0] < end]
        if not inside:          # a pass shorter than the interval
            before = [speed for s, _, speed in probes if s < start]
            if not before:
                raise ValueError("no speed probe ran before the interval "
                                 "ended")
            return (end - start) * reference / before[-1]
        total, t = 0.0, start
        for s, d, speed in inside:
            total += (s - t) * reference / speed
            t = s + d
        return total + max(end - t, 0.0) * reference / inside[-1][2]
