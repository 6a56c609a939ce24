"""Interpreter speed sampling, to take host speed drift out of the timings.

On a shared host the speed of this CPU drifts by tens of percent within
seconds, and every piece of pure-Python code slows together: the same
invocation then takes from 0.8x to 1.3x its usual time.  To measure the
program rather than the host, the benchmark times a fixed pure-Python
kernel (exact fractions and dict stores, like nlielab's inner loops)
while an invocation runs, and rescales wall time to the speed at which
the kernel takes ``REF_KERNEL_S``.  Sampling needs no thread: an interval
timer interrupts the invocation and the signal handler runs the kernel.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.002
PERIOD_S = 0.25
TAIL_SAMPLES = 3


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7, i % 5 + 1)
        table[(i, i % 3)] = acc
    return table


def _timed_kernel():
    """(start, seconds) of one kernel run.  The collector is off meanwhile:
    a full collection of the workload's heap must not land in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_kernel(runs):
    """Seconds each of ``runs`` back-to-back kernel runs took."""
    return [_timed_kernel()[1] for _ in range(runs)]


def rescale(seconds, kernel_samples):
    """Seconds at the reference speed, from the kernel times seen meanwhile.
    The mean, not the median, matches wall time: both integrate slowness."""
    return seconds * REF_KERNEL_S / statistics.fmean(kernel_samples)


class SpeedProbe:
    """Context manager that samples the kernel every ``PERIOD_S`` of wall
    time, and a few times at exit so short invocations get samples too."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each kernel run

    def _sample(self, signum=None, frame=None):
        self.samples.append(_timed_kernel())

    def kernel_times(self):
        return [seconds for _, seconds in self.samples]

    def time_within(self, start, end):
        """Seconds the samples took between ``start`` and ``end``, to
        subtract from a wall time measured over that interval."""
        return sum(seconds for t, seconds in self.samples if start <= t < end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(TAIL_SAMPLES):
            self._sample()
        return False
