"""Wall time at a reference machine speed.

The speed of a shared machine changes from second to second, by as much as
half, and moves every timing with it.  The benchmark therefore runs a fixed
piece of pure-Python work (``calibrate``, about REFERENCE_S on an unloaded
2.1 GHz Xeon) every EVERY_S, also during operations, and scales
each operation's wall time by REFERENCE_S over the calibration times taken
from just before it to just after it.  A change to symvar leaves the
calibration untouched, so it shows in the scaled times; a change in machine
speed moves both and cancels.
"""

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.004
EVERY_S = 0.05


def calibrate():
    """Seconds taken by a fixed mix of Fraction arithmetic and dict stores."""
    start = time.perf_counter()
    x = Fraction(1)
    d = {}
    for i in range(600):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        if x.denominator > 10 ** 30:
            x = Fraction(1)
        d[i % 97] = (i, x)
    return time.perf_counter() - start


class Sampler:
    """Calibration samples ``(start, seconds, wall)``.

    One is taken on entry and one on exit, and with ``timer`` one every
    EVERY_S from an interval-timer signal, so that samples also fall inside
    long operations; without it the caller calls ``between`` between
    operations.
    """

    def __init__(self, timer=True):
        self.timer = timer
        self.samples = []
        self._busy = False

    def take(self, *_):
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        seconds = calibrate()
        self.samples.append((start, seconds, time.perf_counter() - start))
        self._busy = False

    def __enter__(self):
        self.take()
        if self.timer:
            signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def between(self):
        """Without the timer: take a sample once EVERY_S has passed."""
        if time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.take()

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.take()


def unscaled(spans, samples, in_process=True):
    """Wall time of each span ``(start, end)``; for an operation that ran in
    this process, less the samples that interrupted it."""
    return [d for d, _ in _spans(spans, samples, in_process)]


def scaled(spans, samples, in_process=True):
    """``unscaled`` times REFERENCE_S over the mean calibration time from the
    last sample before the span to the first one after it."""
    return [d * REFERENCE_S / c for d, c in _spans(spans, samples, in_process)]


def _spans(spans, samples, in_process):
    starts = [t for t, _, _ in samples]
    for start, end in spans:
        i = bisect.bisect_left(starts, start)
        j = bisect.bisect_left(starts, end)
        inside = sum(wall for _, _, wall in samples[i:j]) if in_process else 0.0
        near = [c for _, c, _ in samples[max(i - 1, 0):j + 1]]
        yield end - start - inside, sum(near) / len(near)
