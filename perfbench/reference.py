"""A fixed stdlib loop that gauges how fast this shared machine runs Python
right now, and a sampler that times it while commands run.

On a host shared with other tenants the same command can take 1.8 times
longer from one minute to the next, with no steal time or preemption to
show for it.  The benchmark therefore rescales every time to a machine on
which one unit of the loop takes ``UNIT_NOMINAL_S``.  The rescaled times
keep every change made to lietower and cancel the drift of the machine.
The loop never changes, so it is the same on every commit.
"""

import signal
import time
from fractions import Fraction

UNIT_NOMINAL_S = 0.0006
SAMPLE_EVERY_S = 0.05

_THIRD = Fraction(1, 3)


def reference_seconds(units: int = 1) -> float:
    """Wall time of ``units`` rounds of small-Fraction arithmetic and dict
    updates, the same kind of interpreter work as the exact kernel."""
    start = time.perf_counter()
    total = 0
    table: dict = {}
    for _ in range(units):
        for k in range(1, 100):
            total += (Fraction(k, k + 1) * _THIRD + Fraction(k % 7, 5)).numerator
        for i in range(1600):
            table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


class SpeedSampler:
    """Times one unit of the loop every ``SAMPLE_EVERY_S`` of wall time from
    a SIGALRM handler, so each command's own time window holds samples of
    the machine's speed.  ``samples`` holds (start, seconds) pairs; the time
    the handler takes inside a command is subtracted from its latency."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), reference_seconds()))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
