"""Host-speed calibration for the worker's job times.

The host's speed drifts by tens of percent over seconds to minutes, and
that drift is most of the run-to-run spread of a raw wall time.  Three
fixed loops (integer arithmetic, calls with list and dict updates, small
numpy operations), timed every ``TICK_S`` seconds from a SIGALRM handler
while the jobs run, track it; together they track each workload's own
slowdown better than any one of them.  None allocates objects the
garbage collector sees, so the program's heap does not affect them.

A tick's speed is the geometric mean over the loops of reference time
over measured time, and a job's time at reference speed is its measured
time times the mean speed of the ticks during it.  The handler's own
time is taken off the clock that jobs (and the tracer) are timed with.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

TICK_S = 0.2


def _int_loop() -> None:
    acc = 0
    for i in range(30_000):
        acc += (i * i) % 7


def _inc(x: int) -> int:
    return x + 1


def _call_loop() -> None:
    counts: dict[int, int] = {}
    buf: list[int] = []
    for i in range(12_000):
        buf.append(_inc(i))
        counts[i & 63] = counts.get(i & 63, 0) + 1
        if len(buf) > 100:
            buf.clear()


_ARRAY = np.arange(1000.0)


def _numpy_loop() -> None:
    b = _ARRAY
    for _ in range(500):
        b = np.sqrt(b * 1.0001 + 1.0)


#: (loop, its time at the reference speed): fixed scales, chosen so that
#: reported times read as seconds on a typical 2-core Xeon VM
KERNELS = ((_int_loop, 0.003), (_call_loop, 0.003), (_numpy_loop, 0.0025))


def speed() -> float:
    """Current speed relative to the reference (higher is faster)."""
    log_sum = 0.0
    for loop, ref in KERNELS:
        t0 = time.perf_counter()
        loop()
        log_sum += math.log(ref / (time.perf_counter() - t0))
    return math.exp(log_sum / len(KERNELS))


def speed_median(runs: int = 5) -> float:
    return sorted(speed() for _ in range(runs))[runs // 2]


class Calibrator:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock at tick, speed)
        self.paused = 0.0  # seconds spent in the handler

    def clock(self) -> float:
        """perf_counter minus the time spent calibrating."""
        paused = self.paused
        return time.perf_counter() - paused

    def clock_ns(self) -> int:
        paused = self.paused
        return time.perf_counter_ns() - int(paused * 1e9)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        s = speed()
        self.samples.append((t0 - self.paused, s))
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Calibrator":
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """Mean speed over the clock interval [start, end]; the nearest
        ticks on either side stand in when no tick fell inside it."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            before = [s for t, s in self.samples if t < start][-1:]
            after = [s for t, s in self.samples if t > end][:1]
            inside = before + after
        return sum(inside) / len(inside)
