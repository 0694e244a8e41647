"""Host-speed gauge: states a call's time at a nominal host speed.

Host time on a shared VM drifts.  Other tenants slow the CPU itself,
by up to 2x on interpreted code, in spells of a few seconds to minutes,
and CPU time rises with wall time, so no clock avoids it.  A single
process running a 2-3 s call carries the drift in full: ten runs of the
same code spread by 10-40% of their median.

:class:`Gauge` samples the drift while a call runs.  A timer signal
interrupts the call every ``INTERVAL`` seconds and runs a short
reference chunk twice in the same thread.  The first run brings the
chunk's code and data back into the caches, so the call's own cache
footprint does not reach the second, timed run.  The chunk is the
benchmark's own code and calls nothing in ``repro``, so no library
change can move it.
Its mix follows the library's hot paths: half of its time is
interpreted (small-int arithmetic, dict traffic, method calls), half is
numpy arithmetic on a 4096-element array.  On calls of 2 s on the
``tune``, ``campaign`` and ``harden`` workloads, the log of a call's time
follows the log of the chunk's mean time with a slope of 0.75-0.95 and
a correlation of 0.975; dividing by the chunk's slowdown leaves a
standard deviation of 0.03-0.04 where the raw times had 0.07-0.15.

The call's own time is its wall time minus the time spent in the chunks.
Divided by the mean slowdown of the chunks against ``NOMINAL_SECONDS``,
it is the time the call would take on the host at its nominal speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between two samples (sampling costs about 2% of a call).
INTERVAL = 0.025

#: Seconds one warm :func:`_chunk` takes, between slices of a call, on
#: the nominal host (the fast state of a shared 2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11).
NOMINAL_SECONDS = 0.00030


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def bump(self, value: int) -> int:
        self.value ^= value
        self.count += 1
        return self.count


_CELLS = [_Cell() for _ in range(32)]
_ARRAY = np.arange(4096, dtype=np.int64)


def _chunk() -> int:
    """A fixed piece of work (about 0.26 ms on the nominal host)."""
    cells = _CELLS
    table: dict[int, int] = {}
    state = 12345
    total = 0
    for i in range(500):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 255
        table[key] = table.get(key, 0) + i
        total += cells[key & 31].bump(key)
    array = _ARRAY
    for i in range(20):
        array = (array * 3 + i) & 0xFFFF
        total += int(array[i])
    return total + len(table)


class Gauge:
    """Samples the host's speed on a timer while :meth:`start` is in
    force.  Only the main thread may use it (it installs a signal
    handler)."""

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        self.samples: list[float] = []
        #: Seconds spent in the handler since :meth:`start`.
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        _chunk()
        timed = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - timed)
        self._busy = False
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def slowdown(self) -> float:
        """Mean chunk time since :meth:`start` over the nominal one (a
        fresh sample is taken when the timer has not fired yet)."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        return statistics.fmean(self.samples) / NOMINAL_SECONDS

    def nominal(self, wall_s: float) -> float:
        """``wall_s`` (measured since :meth:`start`) less the sampling
        time, at the nominal host speed."""
        return (wall_s - self.spent) / self.slowdown()
