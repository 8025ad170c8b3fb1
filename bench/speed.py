"""Host speed reference: rescales measured times to one fixed host speed.

The benchmark's hosts share physical cores with other tenants, and the speed
of one virtual CPU drifts by 10-40% over seconds to minutes, on each CPU
apart.  A short fixed task (a Python loop, small matrix products, a sort),
timed on the same CPU at the same moments as the program, slows down with it:
on the reference machine its 2-second medians correlated 0.88-0.99 with
those of other Python, numpy and sorting tasks on that CPU, and 0 with the
other CPU.  So every operation runs this task every ``INTERVAL_S`` seconds
from a timer signal, and each set-up probe runs it right after its set-up.
A time ``t`` measured while the task took ``r`` seconds is reported as
``t * NOMINAL_S / r``: the seconds the same work takes when the host runs the
task in ``NOMINAL_S``.  The task runs no code of the package, so a change to
the package moves the rescaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Median duration of :func:`reference` on the reference machine (see
#: NOTES.md) in a fast spell; rescaled times read in seconds at that speed.
NOMINAL_S = 6.7e-4

#: Seconds between two reference samples during an operation.
INTERVAL_S = 0.25

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.random((120, 120))
_VALUES = _RNG.random(40_000)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _task() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(6_000):
        total += i * 0.5
    for _ in range(3):
        _MATRIX @ _MATRIX
    np.sort(_VALUES)
    return time.perf_counter() - start


def reference() -> float:
    """Run the fixed reference task three times; returns the median duration.

    The first run refills the caches the program has evicted, so the median
    follows the CPU's speed rather than the program's use of the caches.
    """
    return statistics.median(_task() for _ in range(3))


def probe_factor(samples: int = 5) -> float:
    """``NOMINAL_S`` over the median of a few back-to-back reference runs."""
    return NOMINAL_S / statistics.median(reference() for _ in range(samples))


class Sampler:
    """Times :func:`reference` every ``INTERVAL_S`` seconds while running.

    The samples come from a ``SIGALRM`` handler, so they run in the main
    thread between two bytecodes of the program, on the CPU it runs on.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (time taken, duration)
        self.spent_s = 0.0
        self.start = 0.0

    def _sample(self, *_args) -> None:
        entered = _now()
        self.samples.append((entered, reference()))
        self.spent_s += _now() - entered

    def __enter__(self) -> "Sampler":
        self.start = _now()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def factor(self) -> float:
        """``NOMINAL_S`` over the reference's duration, weighted by time.

        Each sample stands for the interval since the one before it (the
        timer signal waits while the program is inside one long C call).
        """
        weighted = span = 0.0
        previous = self.start
        for taken, duration in self.samples:
            gap = max(taken - previous, 1e-6)
            weighted += gap * NOMINAL_S / duration
            span += gap
            previous = taken
        return weighted / span
