"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants, the same interpreter-
bound work can take anywhere from 1x to 2x as long from one second to the
next.  `calibrate()` is a fixed piece of work of the same kind as
jamsense's (Python-level loops, small lists and dicts, scalar numpy RNG
calls, tiny array operations, and scattered reads and writes of an 8 MB
buffer) that shares no code with jamsense.  A `Span` runs it right before
and right after the work it times and, unless told not to, every
`PERIOD_S` seconds during the work from a SIGALRM handler.  The time spent in those inner runs is taken out of the span's
time, and the rest is reported in reference seconds:

    reference_s = (measured_s - inner calibration s) * REFERENCE_S / mean(calibrations)

so a span measured while the host runs slow is scaled down by the same
factor as the calibrations taken during it.  `REFERENCE_S` is close to the
calibration's time on the 2-core development host, so reference seconds
are close to the seconds seen there.  Neither the kernel nor the constants
may change once results exist, because they set the scale of every
reported time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.05
PERIOD_S = 0.4


# Touched at scattered offsets by the kernel, so that part of its time goes
# to cache misses, as much of a large world's does.  Allocated on the first
# calibration, so that a process that never calibrates does not hold it.
_SCATTER = bytearray()


def _kernel() -> int:
    import numpy as np

    global _SCATTER
    if not _SCATTER:
        _SCATTER = bytearray(8 * 1024 * 1024)
    rng = np.random.Generator(np.random.PCG64(7))
    row = np.zeros(10, dtype=np.int8)
    acc = 0
    table = {}
    for i in range(8000):
        items = [j for j in range(8) if (i + j) % 3]
        table[i % 97] = items
        acc += len(items)
        if i % 8 == 0:
            acc += int(rng.integers(5))
            np.maximum(row, np.asarray(items[:1] * 10, dtype=np.int8), out=row)
    x, n = 12345, len(_SCATTER)
    for i in range(30000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += _SCATTER[x % n]
        _SCATTER[(x >> 3) % n] = i & 0xFF
    return acc + int(row.sum())


def calibrate() -> float:
    """Seconds the fixed calibration work takes right now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def factor_now(samples: int = 3) -> float:
    """Factor from seconds just measured in this process to reference seconds."""
    return REFERENCE_S / statistics.median([calibrate() for _ in range(samples)])


class Clock:
    """Hands out spans; keeps the last calibration to open the next span."""

    def __init__(self) -> None:
        calibrate()  # the first call also imports numpy
        self.last = calibrate()

    def span(self, sample_inside: bool = True, inner=None) -> "Span":
        return Span(self, sample_inside, inner)


class Span:
    """Times its body; afterwards `raw_s`, `factor` and `ref_s` are set.

    `inner` is an optional context manager entered just outside the timed
    region (the tracer).  Traced spans take no inner calibrations, whose
    time would land in the self time of whatever traced call was open.
    """

    def __init__(self, clock: Clock, sample_inside: bool, inner=None) -> None:
        self._clock = clock
        self._sample_inside = sample_inside
        self._inner = inner
        self._samples: list = []
        self.raw_s = self.ref_s = 0.0
        self.factor = 1.0

    def _sample(self, signum, frame) -> None:
        self._samples.append(calibrate())

    def __enter__(self) -> "Span":
        if self._inner is not None:
            self._inner.__enter__()
        if self._sample_inside:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._t0
        if self._sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self._inner is not None:
            self._inner.__exit__(*exc)
        after = calibrate()
        self.factor = REFERENCE_S / statistics.mean(
            [self._clock.last, after, *self._samples])
        self._clock.last = after
        self.raw_s = elapsed - sum(self._samples)
        self.ref_s = self.raw_s * self.factor
