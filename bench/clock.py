"""Operation times scaled to a reference speed of the host.

The benchmark runs on shared machines whose speed changes by up to half for
seconds at a time, as other tenants come and go; process CPU time moves with
it, since the slowdown is in the processor, not in scheduling.  So the
benchmark also times a fixed calibration loop, interleaved with the work, and
reports each operation's CPU time multiplied by ``reference / loop time``
nearby: the time the operation would take on a host that runs the loop in
the reference time.  A slower host slows both alike and the ratio stays.

The calibration has to do the kind of work the operations do.  ``cflow``
runs many small numpy calls and, in its mpmath tier, pure-Python
multiple-precision arithmetic; the host's slowdown of either kind differs.
So a calibration times ``numpy_loop`` and ``mpmath_loop``, and the host's
*slowness* is the geometric mean of their times over their references: on
a shared 2-vCPU host it tracks both the suite's and the mpmath tier's
operations better than either loop alone.  The references are the loops'
times on a quiet 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4,
mpmath 1.3), so scaled times are close to that machine's real times.
(Fresh interpreters are timed by ``cold.py`` against a loop run inside
them.)
"""

from __future__ import annotations

import math
import statistics
import time

import mpmath
import numpy as np

NUMPY_REF_S = 0.6e-3
MPMATH_REF_S = 2.0e-3
CALIBRATE_EVERY_S = 0.15  # of process time, between in-process calibrations
SLOWNESS_REPEATS = 3  # slowness measurements per calibration; the median is kept
_A = np.random.default_rng(0).standard_normal((8, 8)) + 8 * np.eye(8)


def numpy_loop() -> None:
    for _ in range(40):
        b = _A @ _A
        np.linalg.solve(_A, b[:, 0])
        np.abs(b).max()


def mpmath_loop() -> None:
    with mpmath.workdps(50):
        x = mpmath.mpf(1) / 3
        for i in range(200):
            x = x * x + mpmath.mpf(i) / 7
            x = x / (1 + x)


def loop_time(loop) -> float:
    start = time.process_time()
    loop()
    return time.process_time() - start


def slowness() -> float:
    """The host's current slowness: 1 on the reference machine."""
    return math.sqrt(loop_time(numpy_loop) / NUMPY_REF_S * loop_time(mpmath_loop) / MPMATH_REF_S)


class Clock:
    """Times in-process operations in CPU time, calibrating as it goes.

    ``start``/``stop`` bracket one operation; every ``CALIBRATE_EVERY_S`` of
    process time, ``start`` first calibrates.  ``flush`` calibrates once more
    and returns the operations recorded since the last flush, each divided
    by the mean slowness of the calibrations just before and just after it.
    An operation longer than the period (the ladder's builds) is calibrated
    on both sides.
    """

    def __init__(self):
        self.calibrations: list[float] = []  # slowness figures
        self._pending: list[tuple] = []  # (tag, raw seconds, index of the last calibration)
        self._last = -float("inf")

    def calibrate(self) -> None:
        self.calibrations.append(statistics.median(slowness() for _ in range(SLOWNESS_REPEATS)))
        self._last = time.process_time()

    def start(self) -> float:
        now = time.process_time()
        if now - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()
            now = time.process_time()
        return now

    def stop(self, tag, started: float) -> None:
        self._pending.append((tag, time.process_time() - started, len(self.calibrations) - 1))

    def flush(self) -> list:
        """``[(tag, scaled seconds, raw seconds), ...]`` since the last flush."""
        self.calibrate()
        cals = self.calibrations
        out = []
        for tag, raw, i in self._pending:
            out.append((tag, raw * 2 / (cals[i] + cals[i + 1]), raw))
        self._pending.clear()
        return out

