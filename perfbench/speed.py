"""Machine-speed reference for scaling measured times.

On a shared machine the speed of a CPU drifts by 10-25 % within
seconds (other tenants, frequency changes).  A fixed pure-Python loop
slows down with the program, so a background thread times that loop
every ``PERIOD_S`` seconds, and every measured interval is scaled to a
machine on which one loop iteration takes ``NOMINAL_NS`` nanoseconds.
Each interval uses the samples taken within ``WINDOW_S`` of its middle,
or during it when it is longer.

The loop does what the program's scalar branch code does: attribute
reads, float arithmetic and small tuples.  On a 2-vCPU virtual machine
its timings correlated with those of half-second batches of crossing
checks at about 0.96, and scaling cut the spread of those batches from
15-19 % to 6-8 %.  The program still slows down about 1.3 times as much
as the loop, so scaled times keep part of the drift.  The sampling costs
the measured code about 2 %.
"""

from __future__ import annotations

import bisect
import threading
import time

ITERATIONS = 4_000
NOMINAL_NS = 150.0
NOMINAL_S = ITERATIONS * NOMINAL_NS * 1e-9
PERIOD_S = 0.04
WINDOW_S = 1.0


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _loop() -> float:
    """Seconds one run of the reference loop takes."""
    p = _Point(0.3, 0.7)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        x, y = p.x, p.y
        img = (0.5 * x + 0.1, 1.5 * y - 0.2) if y < 0.5 else (0.3 * x, 1.0 - y)
        acc += img[0] + img[1]
    return time.perf_counter() - start


class Sampler:
    """Background thread timing the reference loop between ``start``
    and ``stop``."""

    def __init__(self):
        self._samples: list = []        # (perf_counter time, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            secs = _loop()
            self._samples.append((time.perf_counter(), secs))
            self._stop.wait(PERIOD_S)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")

    def factor(self, start: float, end: float) -> float:
        """Scale for the interval [start, end] of ``time.perf_counter``."""
        half = max(WINDOW_S, end - start) / 2.0
        mid = (start + end) / 2.0
        samples = self._samples[:]
        lo = bisect.bisect_left(samples, mid - half, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, mid + half, key=lambda s: s[0])
        window = samples[lo:hi] or samples[-1:]
        if not window:
            raise RuntimeError("no speed samples yet")
        return NOMINAL_S * len(window) / sum(secs for _, secs in window)
