"""Clocks for the benchmark's timings.

On a machine shared with other work, the speed at which Python code runs
drifts by up to 2x over tens of seconds.  `PacedClock` cancels that drift:
it scales wall time by how fast a fixed reference kernel ran just before,
so it reads reference seconds, the seconds a machine that runs the kernel
in REFERENCE_S would take.  The engine's time relative to the kernel stays
put while both slow down together.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0075   # reference_kernel's wall time on an uncontended machine
REPACE_S = 0.25        # wall seconds between runs of the kernel


def reference_kernel() -> int:
    """Fixed pure-Python work of the engine's kind: Fraction comparisons
    and arithmetic, tuple building."""
    xs = [Fraction(i, 7) for i in range(300)]
    count = 0
    for _ in range(12):
        count += sum(a < b for a, b in zip(xs, xs[1:]))
        count += len(tuple((x, x + 1) for x in xs))
    return count


class WallClock:
    """Plain wall-clock seconds, for spans that must not contain the kernel."""

    kernel_s = 0.0

    @staticmethod
    def now() -> float:
        return perf_counter()


class PacedClock:
    """Reference seconds: wall time scaled by REFERENCE_S over the kernel's
    latest wall time.

    A call to `now` at least REPACE_S after the kernel last ran reruns it,
    after taking its reading, so the kernel's own time is never counted.
    """

    def __init__(self):
        self.elapsed = 0.0
        self.kernel_s = 0.0     # wall seconds spent in the kernel so far
        self._pace()

    def _pace(self) -> None:
        start = perf_counter()
        reference_kernel()
        self.last = self.paced = perf_counter()
        self.kernel_s += self.last - start
        self.factor = REFERENCE_S / (self.last - start)

    def now(self) -> float:
        t = perf_counter()
        self.elapsed += (t - self.last) * self.factor
        self.last = t
        if t - self.paced >= REPACE_S:
            self._pace()
        return self.elapsed
