"""Host speed, measured while the benchmark runs, to turn raw times into reference seconds.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 50 % over minutes while nothing in the guest changes: the same C5xC4
solve took 6.6 s and 10.9 s in two processes a minute apart, and a fixed
loop slowed from 0.26 s to 0.43 s. Raw times therefore spread by up to 40 %
between identical runs.

A probe is a fixed loop of about 0.4 ms that shares no code with trdprod:
plain integer arithmetic, then numpy-scalar indexing and bit operations of
the kind the pure-Python kernels spend their time on. ``Sampler`` runs it
from a SIGALRM handler five times a second in the benchmark's own thread,
so it sees the speed the workload sees at the same moments. A time t
measured while nearby probes averaged p becomes t * REFERENCE_PROBE_S / p:
the seconds it would take on a host where the probe takes REFERENCE_PROBE_S
(the median on the reference host). A pass uses the probes taken during it;
an operation, which may be shorter than the sampling interval, uses those
within LOCAL_WINDOW_S of it. Scaled this way, the spread of pass times
between identical runs fell from 0.12-0.38 to 0.03-0.07 (interquartile
range over median, sets of ten runs of each workload).
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

_clock = time.perf_counter

REFERENCE_PROBE_S = 4.0e-4
INT_ITERATIONS = 2000
NUMPY_ITERATIONS = 300
INTERVAL_S = 0.2
LOCAL_WINDOW_S = 1.0

_BIT = np.array([np.uint64(1 << i) for i in range(64)], dtype=np.uint64)
_COUNT = np.zeros(64, dtype=np.int32)


def probe() -> float:
    """Seconds for one fixed loop of integer, then numpy-scalar, work."""
    t0 = _clock()
    acc = 0
    for i in range(INT_ITERATIONS):
        acc += i * i % 7
    mask = np.uint64(0)
    for k in range(NUMPY_ITERATIONS):
        i = k & 63
        _COUNT[i] += 1
        if _COUNT[i] & 1:
            mask |= _BIT[i]
        else:
            mask &= ~_BIT[i]
    return _clock() - t0


def probe_burst(count: int = 20, warm_up: int = 5) -> float:
    """Mean of back-to-back probes, for a moment outside a sampled run.

    The first runs of the loop in a fresh interpreter are slower while its
    bytecode specializes, so a few are discarded.
    """
    for _ in range(warm_up):
        probe()
    return statistics.fmean(probe() for _ in range(count))


def scale(probe_s: float) -> float:
    """Factor that turns raw seconds into reference seconds."""
    return REFERENCE_PROBE_S / probe_s


class Sampler:
    """Probes five times a second while active; the workload runs undisturbed in between."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t = _clock()
        self.samples.append(probe())
        self.times.append(t)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mean(self, start: float | None = None, stop: float | None = None) -> float | None:
        """Mean time of the probes begun between two clock readings (default: all), or None."""
        lo = 0 if start is None else bisect_left(self.times, start)
        hi = len(self.times) if stop is None else bisect_right(self.times, stop)
        span = self.samples[lo:hi]
        return statistics.fmean(span) if span else None

    def scale_near(self, start: float, seconds: float, fallback: float) -> float:
        """Scale for a span from its probes and those within LOCAL_WINDOW_S of it."""
        p = self.mean(start - LOCAL_WINDOW_S, start + seconds + LOCAL_WINDOW_S)
        return scale(p) if p is not None else fallback
