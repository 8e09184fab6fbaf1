"""Stage timings corrected for the speed of the vCPU while they ran.

On a shared host the vCPU runs slower in bursts, from milliseconds to
minutes, and a slow burst stretches every stage that runs during it.  A
``Meter`` samples that speed while the stage runs: a ``SIGALRM`` timer
interrupts the stage every ``INTERVAL_S`` and times a fixed probe, a loop
of lookups in a small dictionary.  The probe allocates no container, so it
never triggers the program's garbage collector, and its table fits in the
first-level cache, so it times the core rather than what the stage left in
the caches (a probe over a larger table tracked the world build worse).
The stage's reference time is its wall time without the probes, scaled by
how much slower than the reference speed the probes ran during it:

    reference_s = (wall_s - probe_s) * REFERENCE_PROBE_US / median_probe_us

``REFERENCE_PROBE_US`` fixes the scale: the probe's median duration on the
reference box (2-vCPU Intel Xeon guest, Python 3.11) when it was quiet, so
a reference second is about one wall second there.  Both the wall time and
the probe median are kept, so a report can show either.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

#: how often the probe interrupts a measured stage.
INTERVAL_S = 0.002
#: the probe's median duration on the reference box when it was quiet.
REFERENCE_PROBE_US = 40.0
_PROBE_LOOPS = 600
_TABLE = {key: key for key in range(64)}


def _probe() -> int:
    table = _TABLE
    total = 0
    for i in range(_PROBE_LOOPS):
        total += table[i & 63]
    return total


@dataclass(frozen=True)
class Sample:
    """One measured stage: ``repeats`` back-to-back calls of it."""

    wall_s: float
    probe_s: float
    probe_us: float   # median probe duration during the stage
    repeats: int

    @property
    def reference_s(self) -> float:
        """Time of one call at the reference speed."""
        net = (self.wall_s - self.probe_s) / self.repeats
        return net * REFERENCE_PROBE_US / self.probe_us


class Meter:
    """Measures calls with the speed probe running alongside them, or, with
    ``probing=False``, by wall time alone (reference time = wall time)."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self._durations: list[float] = []
        for _ in range(200):
            _probe()

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        _probe()
        self._durations.append(time.perf_counter() - started)

    def measure(self, fn, *args, repeats: int = 1, **kwargs):
        """(last result, ``Sample``) of ``repeats`` back-to-back calls."""
        if not self.probing:
            started = time.perf_counter()
            for _ in range(repeats):
                result = fn(*args, **kwargs)
            wall = time.perf_counter() - started
            return result, Sample(wall, 0.0, REFERENCE_PROBE_US, repeats)
        self._durations = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            for _ in range(repeats):
                result = fn(*args, **kwargs)
            wall = time.perf_counter() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        durations = self._durations
        probe_s = sum(durations)
        # A stage too short for the timer to sample is probed right after.
        while len(durations) < 5:
            self._tick(None, None)
        return result, Sample(
            wall_s=wall,
            probe_s=probe_s,
            probe_us=statistics.median(durations) * 1e6,
            repeats=repeats,
        )
