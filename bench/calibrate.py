"""A gauge of the host's speed, sampled while the protocol runs.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, far more than a regression bound can absorb.  The
gauge times a fixed kernel of interpreter and numpy work every
``INTERVAL`` seconds, from a SIGALRM handler in the measuring process, so
samples land inside long protocol calls as well as between them.  A
repetition's time, less the gauge's own samples inside it, is then stated
at the reference speed: multiplied by ``REFERENCE_S`` over the mean kernel
time sampled during it.  The kernel is the benchmark's own code, so no
change to cabdm moves it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0035  # nominal kernel time; scaled figures are at this speed
INTERVAL = 0.1

_ROW = np.arange(1024, dtype=np.int64) % 7
_LUT = np.arange(8, dtype=np.int8)


def kernel() -> int:
    """Dictionary and integer work like LZW, then small numpy calls like a CA step.

    Over the five workloads' repetitions, both parts tracked the host's
    drift better than scattered writes into a 4 MiB array did, including
    for the machine simulator and its multi-megabyte tapes.
    """
    phrases: dict[int, int] = {}
    x = 1
    for _ in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFF
        phrases[x >> 4] = phrases.get(x >> 4, 0) + 1
    row = _ROW.copy()
    for _ in range(60):
        row = _LUT[(np.roll(row, 1) + row) & 7].astype(np.int64)
    return len(phrases) + int(row.sum())


def measure() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Gauge:
    """Kernel samples ``(start, end)`` taken on a timer while in a ``with`` block."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_) -> None:
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of work between start and end, less the samples taken
        inside, at the reference speed.  Needs a sample just before start
        and just after end."""
        before = max(i for i, (s, _) in enumerate(self.samples) if s < start)
        after = min(i for i, (s, _) in enumerate(self.samples) if s > end)
        around = self.samples[before : after + 1]
        busy = sum(e - s for s, e in around[1:-1])
        return (end - start - busy) * REFERENCE_S / statistics.fmean(e - s for s, e in around)
