"""The machine's speed, sampled while the measured work runs.

The benchmark's reference box is two vCPUs of a shared host, and its
speed swings with the host's other tenants: the same warm ``mid``
survey takes 1.6 s in one minute and 2.9 s in the next, with CPU time
following wall time. These swings last from seconds to minutes, so
neither more repetitions nor longer runs average them out.

A ``SpeedProbe`` measures the swings where they happen. While it
samples, a real-time interval timer interrupts the process every
``PERIOD_S``, and the signal handler times one fixed probe (a small
dict build and sort, independent of ``repro``, with the collector
off so that ``repro``'s garbage is not collected on the probe's
clock). When neighbours slow the box, the probe slows with the work
around it: over 154 warm surveys in one process whose wall time
ranged 1.5-2.9 s, survey wall ÷ median probe time spread by 4.2%
between the quartiles, against 37% for wall time.

The speed also changes within one call: the per-second median probe
times of one 15 s pooled study ranged 21-41 µs. So the speed of an
interval is the mean of ``REF_PROBE_S`` ÷ probe time over its evenly
spaced samples, the time-average the work ran at, rather than the
speed of the median sample: 1 at the reference speed, 0.5 at half of
it. A time multiplied by it is in *reference seconds*, the
time the work would take at the reference speed. A change to
``repro`` moves the work but not the probe, so it moves reference
seconds just as it moves wall seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, List

__all__ = ["REF_PROBE_S", "SpeedProbe"]

#: The probe's usual time on the reference box (2-vCPU Xeon,
#: Python 3.11), measured inside ``mid`` surveys.
REF_PROBE_S = 25e-6
#: Sampling period: the probe costs about 0.3% of the work it samples.
PERIOD_S = 0.01
#: A sampling interval shorter than this many periods is topped up
#: with probes run directly after it.
MIN_SAMPLES = 5


def _probe() -> float:
    """Seconds for one fixed piece of interpreter work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(150):
            table[i * 7] = (i, i + 1)
        sorted(table)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe times of one sampling interval at a time.

    Only the main thread of a process may sample, and the interval
    timer is the process's only ``ITIMER_REAL``; ``repro`` sets no
    timers or signal handlers of its own. Forked pool workers inherit
    neither the timer nor the samples, so a pooled call is sampled in
    the parent, on the same host as its workers.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(_probe())

    @contextmanager
    def sampling(self) -> Iterator["SpeedProbe"]:
        """Sample for the ``with`` body, after dropping older samples."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(_probe())

    def speed(self) -> float:
        """The mean of ``REF_PROBE_S`` ÷ probe time over the last
        interval."""
        return statistics.fmean(REF_PROBE_S / t for t in self.samples)
