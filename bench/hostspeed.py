"""Host speed probe: a fixed pure-Python kernel, timed on the benchmark's CPU.

On a shared host the speed of one virtual CPU drifts by tens of percent
over minutes, as other tenants load the physical core, and two virtual CPUs
drift independently.  The probe does the kind of work arcmaps does (tuple
indexing and tuple hashing in a dict) on fixed data, takes no input from
the package, and allocates no object the garbage collector tracks, so it
does not shift the program's collections.  A time t, measured while
probes on the same CPU took p on average, is reported as
t * REFERENCE_S / p: the time at the host speed at which one probe takes
REFERENCE_S.
"""

from __future__ import annotations

import itertools
import signal
import time

# Median probe time on the reference host (2 virtual CPUs of an Intel Xeon,
# Python 3.11); it only fixes the scale of the normalised times.
REFERENCE_S = 0.0085
INTERVAL_S = 0.2  # wall time between two probes of a Sampler
_TABLE = list(itertools.permutations(range(7)))
_INDEX = {t: i for i, t in enumerate(_TABLE)}
_G = _TABLE[2021]
_SWEEPS = 10


def probe() -> float:
    """Seconds the fixed kernel takes now, on this process's CPU."""
    t0 = time.perf_counter()
    s = 0
    for _ in range(_SWEEPS):
        for a in _TABLE:
            s += _INDEX[a] + _G[a[0]] + _G[a[3]] + _G[a[6]]
    return time.perf_counter() - t0


def normalised(seconds: float, probes: list[float]) -> float:
    return seconds * REFERENCE_S * len(probes) / sum(probes)


class Sampler:
    """While active, runs the probe every INTERVAL_S of wall time from a
    SIGALRM handler, so the probes sample host speed evenly over the work,
    however long each command is.  `paused` is the total time spent in
    probes, which a caller subtracts from the times it measures."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a delayed signal arrived while a probe ran
            return
        self._busy = True
        dt = probe()
        self.samples.append(dt)
        self.paused += dt
        self._busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
