"""Wall-clock timing corrected for the host's speed at the time.

The benchmark runs on a few cores of a shared host whose speed for this
process changes by up to ~1.8x, often in stretches of a few seconds to a few
tens of seconds (a fixed pure-Python loop took ~12.5 ms or ~20.5 ms).  A
30-second run can land mostly on a fast or a slow stretch, so raw wall times
of identical work spread by 25-35% between runs.

``HostClock`` times each unit of work (a ``run_experiment`` call, a
``run_process`` call, a CLI command) and reads a fixed probe before, after
and, where the benchmark can step in, during it: a pure-Python loop and a
run of small numpy operations, the two kinds of work the workloads mix.
Readings around a unit alone track the host poorly once the unit lasts
about a second; readings during it track it well.  The unit's time
*at reference speed* is its wall time scaled by ``PROBE_REF_S / probe``,
where ``probe`` is the mean of the readings around and during it: the time
the unit takes on a host where the probe takes ``PROBE_REF_S``.  That
constant is a round figure near the probe's reading on the reference host
when it runs fast (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), so there
the figures read as seconds of a quiet host.  The probe calls no flowsearch
code, so a faster program still reads faster.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 1.2e-3  # near the reference host's reading when it runs fast
_X = np.linspace(-1.0, 1.0, 128).reshape(64, 2)
_W = np.linspace(0.5, 2.0, 8).reshape(2, 4)


def _probe_work() -> None:
    s = 0
    for i in range(7_000):
        s += i * i
    x = _X
    for _ in range(50):
        y = x @ _W
        y = np.exp(y - y.max(axis=1, keepdims=True))
        x = _X * (1.0 + 1e-9 * y.sum(axis=1, keepdims=True))


def at_reference(pairs) -> list[float]:
    """(elapsed, probe) pairs to seconds at reference speed."""
    return [elapsed * PROBE_REF_S / probe for elapsed, probe in pairs]


class HostClock:
    """Lap timer that reads the probe at every lap boundary.

    ``begin()`` starts the first lap; ``sample()`` adds a reading while a
    lap runs; each ``lap()`` returns the lap's elapsed seconds (probe time
    excluded) and the mean of its readings, and starts the next lap.  A
    reading is the median of three runs of the probe, so that one preempted
    run does not count.  With ``probing=False`` no probe runs and every
    reading is ``PROBE_REF_S``, so adjusted times equal raw ones.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.readings: list[float] = []
        self._lap: list[float] = [PROBE_REF_S]
        self._paused = 0.0
        self._mark = time.perf_counter()

    def probe(self) -> float:
        if not self.probing:
            return PROBE_REF_S
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            _probe_work()
            runs.append(time.perf_counter() - start)
        reading = statistics.median(runs)
        self.readings.append(reading)
        return reading

    def begin(self) -> None:
        self._lap = [self.probe()]
        self._paused = 0.0
        self._mark = time.perf_counter()

    def sample(self, concurrent: bool = False) -> None:
        """Add a reading to the running lap.  A reading that interrupts
        the timed work is taken out of the lap's time; a ``concurrent`` one,
        made while waiting on a child process, is not."""
        start = time.perf_counter()
        self._lap.append(self.probe())
        if not concurrent:
            self._paused += time.perf_counter() - start

    def lap(self) -> tuple[float, float]:
        elapsed = time.perf_counter() - self._mark - self._paused
        after = self.probe()
        probe = statistics.fmean(self._lap + [after])
        self._lap = [after]
        self._paused = 0.0
        self._mark = time.perf_counter()
        return elapsed, probe
