"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host whose speed for this
process changes within a second, by up to 1.6x, with the load of its
neighbours (steal time stays near 0; CPU time tracks wall time).  A
``Clock`` times a fixed probe that does not touch homtoric every
``EVERY_S`` seconds, from an interval timer, so also in the middle of a
long job.  A job's time is split at the probes; each piece is scaled by
``REF_S`` over the mean of the probe times at its two ends, and the time
spent in probes is left out.  The result is the job's time on a host
where the probe takes ``REF_S``.  A change to homtoric changes job times
and leaves the probe alone, so it shows in full.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_right
from time import perf_counter

REF_S = 2.5e-3          # probe time the normalised figures are scaled to
EVERY_S = 0.1           # interval timer period


def _load():
    """Pure-Python work of the kind homtoric does (tuples, a dict, a sort)."""
    d = {}
    for i in range(3000):
        d[(i * 7919) % 1501, i & 7] = (i, i + 1)
    ordered = sorted(d.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    return sum(len(v) for _, v in ordered)


def probe():
    """Seconds one ``_load`` takes now: the faster of two timed runs after
    a warm-up run, with the garbage collector off so that the size of the
    heap homtoric left behind does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _load()
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _load()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Probes the host speed every ``EVERY_S`` between ``start`` and
    ``stop`` (SIGALRM; the process must not use it otherwise)."""

    def __init__(self):
        self.starts = []        # perf_counter() when each probe began
        self.ends = []          # ... and ended
        self.seconds = []       # probe() of each
        self._busy = False

    def _probe(self, *_):
        # a tick that arrives during a probe (the process was stalled for
        # a whole period) is dropped, so that probes never overlap
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        seconds = probe()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self.seconds.append(seconds)
        self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def probe_seconds(self, t0, t1):
        """Time spent in probes between ``t0`` and ``t1``."""
        return sum(max(0.0, min(b, t1) - max(a, t0))
                   for a, b in zip(self.starts, self.ends))

    def normalised(self, t0, t1):
        """Seconds from ``t0`` to ``t1``, both between ``start`` and
        ``stop``, without probe time and scaled to a host where the probe
        takes ``REF_S``."""
        total = 0.0
        for k in range(max(0, bisect_right(self.ends, t0) - 1),
                       min(len(self.ends) - 1, bisect_right(self.starts, t1))):
            # the gap from the end of probe k to the start of probe k + 1
            piece = min(self.starts[k + 1], t1) - max(self.ends[k], t0)
            if piece > 0:
                total += piece * 2 * REF_S / (self.seconds[k] + self.seconds[k + 1])
        return total
