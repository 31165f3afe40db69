"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared virtual machines whose speed changes by up to
1.7x, for seconds to minutes at a time, on identical work.  Raw seconds
then spread more between runs of the same code than a change to the code
would move them.  While a timed stretch runs, a ``SpeedGauge`` runs a fixed
pure-Python kernel from a timer signal every ``PERIOD`` seconds and records
how long each run of it took.  ``scaled(t0, t1)`` returns the program's
seconds between ``t0`` and ``t1`` with the kernel's own runs taken out and
each stretch between two kernel runs rescaled by ``REF_KERNEL_S`` over the
kernel's time there: the time the program would have taken on a machine
where the kernel takes ``REF_KERNEL_S``.  The kernel is code of the
benchmark, not of bondlab, so a change to bondlab moves scaled times as it
moves raw ones; only the machine's drift cancels.

The kernel mixes what bondlab's layers spend their time on: integer
arithmetic, dict and set updates, list building, sorting, function calls
and small numpy array operations.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

PERIOD = 0.1  # seconds between kernel runs while the timer is on
REF_KERNEL_S = 0.003  # kernel seconds that define the reference speed

_ARRAY = np.arange(2048, dtype=np.int64)


def _key(pair):
    return pair[1], pair[0]


def kernel() -> int:
    """Fixed work of a few milliseconds; returns a checksum."""
    x = 12345
    counts: dict[int, int] = {}
    seen: set[int] = set()
    order: list[int] = []
    acc = 0
    for _ in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 511
        counts[k] = counts.get(k, 0) + 1
        if x & 3:
            seen.add(x & 2047)
        else:
            seen.discard(x & 2047)
        if not x & 7:
            order.append(x % 1000)
        acc += (x >> 7) % 97
    ranked = sorted(counts.items(), key=_key)
    a = _ARRAY
    for shift in range(1, 9):
        a = np.minimum(a, np.take(a, (_ARRAY * shift) & 2047)) ^ shift
    return acc + len(ranked) + len(seen) + sum(order) + int(a.sum())


CHECKSUM = kernel()


class SpeedGauge:
    """Kernel runs during timed stretches, and the times they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._old_handler = None

    def sample(self) -> None:
        """Run the kernel once and record when it ran."""
        self._busy = True
        t0 = perf_counter()
        if kernel() != CHECKSUM:
            raise RuntimeError("calibration kernel gave a different result")
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def start(self) -> None:
        """Sample now, then every PERIOD seconds until ``stop``."""
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop the timer, then sample once more."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        self._old_handler = None
        self.sample()

    def kernel_seconds(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled(self, t0: float, t1: float) -> float:
        """Program seconds in [t0, t1] at the reference speed.

        A stretch between two consecutive kernel runs takes the mean of
        their times; time before the first or after the last run takes that
        run's.  Time spent in the kernel counts for nothing.  The speed
        changes within seconds, so the nearest runs estimate it best: the
        median of five runs spread a run's p99 item time on sparse-random
        1.5 to 2.7 times as much.
        """
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("speed gauge has no samples")
        total = 0.0
        # gap k lies between kernel run k-1 and kernel run k (k = 0..n).
        k = bisect.bisect_right(self.ends, t0)
        while k <= n:
            lo = self.ends[k - 1] if k > 0 else float("-inf")
            hi = self.starts[k] if k < n else float("inf")
            if lo >= t1:
                break
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0:
                before = self.ends[k - 1] - self.starts[k - 1] if k > 0 else None
                after = self.ends[k] - self.starts[k] if k < n else None
                d = (before + after) / 2 if before and after else before or after
                total += overlap * REF_KERNEL_S / d
            k += 1
        return total
