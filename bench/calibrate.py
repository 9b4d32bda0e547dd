"""Machine-speed calibration of the timed runs.

On a shared 2-vCPU host the same code runs up to 1.8x slower for stretches
of seconds to minutes, whatever else the run does, so raw wall times of two
runs differ by more than most changes to the program.  The timed run
therefore probes a fixed kernel every ``INTERVAL`` seconds between requests
and scales each request's wall time by ``REFERENCE_S / R``, where ``R`` is
the mean kernel time of the probe just before the request and the one just
after it.  Timings are then in
milliseconds at the speed where the kernel takes ``REFERENCE_S``; the raw
wall times are reported next to them.

The kernel imitates the program's mix on a small scale: Python calls and
frozen dataclasses, 2x2 numpy arithmetic and a dense complex product.  It
uses no thermalops code, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel time on the machine the benchmark was tuned on (x86_64, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6 with single-threaded OpenBLAS), in its fast phase.
REFERENCE_S = 2.0e-3
INTERVAL = 0.1

_DENSE = np.random.default_rng(0).random((48, 48)) + 0j


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def kernel() -> float:
    acc = 0.0
    m = np.eye(2)
    for i in range(200):
        q = math.exp(-i * 1e-3)
        pair = _Pair(q, 1.0 - q)
        step = (1.0 - q) * np.eye(2) + q * np.array([[1.0 - q, 1.0], [q, 0.0]])
        m = step @ m
        acc += float(np.abs(m).max()) + pair.a
    for _ in range(2):
        acc += float((_DENSE @ _DENSE).real[0, 0])
    return acc


def probe() -> float:
    """Wall time of one kernel run, in seconds, after one warm-up run.

    Right after the process has waited (for a request or a child process)
    a first run reads about 10% slow.
    """
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedTrack:
    """Kernel probes taken between requests, and the scale factor per request."""

    def __init__(self):
        self.before: list[int] = []  # number of requests sent before each probe
        self.seconds: list[float] = []
        self._due = 0.0

    def between_requests(self, sent: int) -> None:
        """Probe if ``INTERVAL`` has passed since the last probe."""
        now = time.perf_counter()
        if now >= self._due:
            self.before.append(sent)
            self.seconds.append(probe())
            self._due = time.perf_counter() + INTERVAL

    def factor(self, request: int) -> float:
        """``REFERENCE_S / R`` for the ``request``-th request (0-based)."""
        latest = max(0, bisect.bisect_right(self.before, request) - 1)
        return REFERENCE_S / statistics.mean(self.seconds[latest : latest + 2])
