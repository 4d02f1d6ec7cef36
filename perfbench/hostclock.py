"""Host-speed calibration: a fixed pure-Python kernel sampled while timing.

The host the benchmark runs on changes speed by up to 2x within minutes
(other tenants share the machine), and CPU time tracks wall time, so the
slowdown is in execution, not in scheduling.  A :class:`HostClock` times
a fixed kernel about every 50 ms *during* an operation, from a
``SIGALRM`` handler, and scales the operation's host seconds to seconds
at the reference speed.  Sampling inside the operation's own window
tracks the speed the operation actually ran at, which timing the kernel
between operations does not.  The kernel uses no ``repro`` code, so a
change to the simulator moves the operations and not the kernel.

The kernel's shape follows the simulator's hot loop: attribute access
over a pool of small objects larger than the private caches, dictionary
counters and a deque of timed events.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator, List

#: Seconds one kernel pass takes at the reference speed: the median pass
#: on a 2-vCPU 2.0 GHz x86-64 container.
REFERENCE_S = 0.0019
#: Seconds between samples while an operation runs.
PERIOD_S = 0.05


class _Cell:
    __slots__ = ("value", "weight")

    def __init__(self, index: int) -> None:
        self.value = index
        self.weight = index % 7


class Window:
    """Samples taken during one timed window."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def scale(self) -> float:
        """Reference seconds per host second in this window."""
        if not self.samples:
            return 1.0
        return REFERENCE_S * len(self.samples) / sum(self.samples)

    def reference_s(self, host_s: float) -> float:
        """``host_s`` less the sampling time, at the reference speed."""
        return (host_s - sum(self.samples)) * self.scale()


class HostClock:
    """Builds the kernel's data once; samples the host speed on demand."""

    #: About 5 MB of cells: past the private caches, and small next to
    #: the simulator's own footprint in ``peak_rss_mb``.
    POOL = 60_000
    STEPS = 1_500

    def __init__(self) -> None:
        self._pool = [_Cell(index) for index in range(self.POOL)]
        self._counters = {weight: 0 for weight in range(7)}
        self._due: deque = deque()
        self._ids: deque = deque()
        self._window = Window()

    def _kernel(self) -> int:
        # Allocates no garbage-collected object (no tuples, no new dicts
        # or deques), so sampling never moves the collector's schedule in
        # the code being measured.
        pool = self._pool
        size = self.POOL
        counters = self._counters
        due = self._due
        ids = self._ids
        due.clear()
        ids.clear()
        total = 0
        for now in range(self.STEPS):
            index = now * 7919 % size
            cell = pool[index]
            cell.value += cell.weight
            counters[cell.weight] += 1
            due.append(now + cell.weight)
            ids.append(index)
            while due and due[0] <= now:
                due.popleft()
                total += ids.popleft()
        return total

    def sample(self, *_signal_args) -> None:
        """Time one kernel pass into the current window.

        The pass is timed in thread CPU time, so a sample that is
        preempted (the atlas's two workers occupy both CPUs) still
        measures execution speed, not the wait.
        """
        start = time.thread_time()
        self._kernel()
        self._window.samples.append(time.thread_time() - start)

    @contextmanager
    def sampling(self) -> Iterator[Window]:
        """Sample every :data:`PERIOD_S` seconds for the ``with`` body."""
        self._window = window = Window()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
