"""Timings that do not move with the load on a shared host.

Other tenants of a shared host slow this process by up to 2x, for seconds at
a time, so wall times of the same work spread by 25 to 35 % from one
benchmark run to the next. `Paced` times a block of work and, while it runs,
samples how fast the host runs this process: a SIGALRM every
INTERVAL_S interrupts the block to time `_pace_work`, a fixed piece of
pure-Python float arithmetic that calls nothing in wardsim. One more sample
is taken on either side of the block.

    with Paced() as paced:
        work()
    paced.wall_s     # wall seconds of work(), the samples taken out
    paced.pace_s     # mean seconds of one _pace_work during the block
    paced.scaled_s   # wall_s * REFERENCE_PACE_S / pace_s

`scaled_s` is the time the block would take on the reference host at full
speed. A change to the program moves it in the same proportion as `wall_s`;
a slower host moves `wall_s` and `pace_s` together and leaves it where it
was. Sampling inside the block matters: the host's speed changes within a
one-second operation, and a pace taken only before and after it misses that.

Standard library only, so the cold set-up probe can import it before it
starts its clock.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

# About what one _pace_work takes on an uncontended core of the host the
# benchmark was tuned on (Intel Xeon VM, 2 vCPUs, CPython 3.11).
REFERENCE_PACE_S = 0.0002

INTERVAL_S = 0.02


def _pace_work() -> float:
    x, heading = 0.0, 0.1
    for _ in range(1500):
        x += math.cos(heading) * 0.01
        heading += 0.0005 * math.sin(x)
    return x


def _timed_pace() -> float:
    start = time.perf_counter()
    _pace_work()
    return time.perf_counter() - start


class Paced:
    """Times the block it wraps; see the module docstring. Uses SIGALRM
    and ITIMER_REAL while the block runs, so it must run in the main thread
    and must not be nested."""

    def __enter__(self) -> Paced:
        self.samples = [_timed_pace()]
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def _sample(self, _signum, _frame):
        spent = _timed_pace()
        self.samples.append(spent)
        self._spent += spent

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end, spent = time.perf_counter(), self._spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_timed_pace())
        self.wall_s = end - self._start - spent
        self.pace_s = statistics.fmean(self.samples)
        self.scaled_s = self.wall_s * REFERENCE_PACE_S / self.pace_s
