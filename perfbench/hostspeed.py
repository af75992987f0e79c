"""Host speed and host stalls: what the benchmark takes out of its times.

On a shared host the speed of one core drifts by a fifth and more from
minute to minute, with the load other tenants put on the core's sibling, the
caches and the memory bus.  Runs of the same code a few minutes apart then
differ by more than any regression bound worth having.  The benchmark
therefore times a fixed kernel of its own next to the work it measures and
reports that work's time at a reference host speed:

    time at reference speed = own time * reference kernel time / kernel time

The kernel mixes what the program spends its time on: interpreted Python and
numpy gathers from an array larger than the caches.  It touches nothing of
the program, and its inputs are fixed, so a change to the program moves the
measured time and not the kernel's.

"Own time" is wall time less host stalls (:func:`stall_ms`): the time the
host kept the runnable process off the CPU.
"""

from __future__ import annotations

import selectors
import time

import numpy as np

#: Median CPU time of one kernel pass, run right after an operation, in each
#: workload's loop on the 2-core host (Intel Xeon, 2.0 GHz) where the
#: benchmark was written, so times at reference speed are those that host
#: measured.
REFERENCE_MS = {"interactive": 4.20, "serve": 4.90}
#: ``serve`` spaces its arrivals by the host speed of this many latest passes.
RECENT_PASSES = 5

_LOOP_ITERATIONS = 20_000
_TABLE_SIZE = 16_000_000  # one byte each: past the caches, small next to the
_GATHERS = 200_000        # program's own memory
_SEED = 20180801


class HostSpeed:
    """The calibration kernel and the passes timed so far."""

    def __init__(self, reference_ms: float) -> None:
        self.reference_ms = reference_ms
        rng = np.random.default_rng(_SEED)
        self._table = rng.integers(0, 100, _TABLE_SIZE, dtype=np.uint8)
        self._where = rng.integers(0, _TABLE_SIZE, _GATHERS, dtype=np.int32)
        self.passes: list[tuple[int, float]] = []  # (wall ns at the end, CPU ms)

    def measure(self) -> float:
        """Time one kernel pass (CPU ms), record it and return it."""
        started = time.process_time_ns()
        total = 0
        for i in range(_LOOP_ITERATIONS):
            total += i
        np.bincount(self._table[self._where], minlength=100)
        cpu_ms = (time.process_time_ns() - started) * 1e-6
        self.passes.append((time.perf_counter_ns(), cpu_ms))
        return cpu_ms

    def factor(self, before: float, after: float) -> float:
        """The reference time over the mean of two passes around an operation."""
        return self.reference_ms / ((before + after) / 2)

    def slowdown(self) -> float:
        """The latest passes' median over the reference time: how much longer
        than on the reference host work takes now."""
        recent = [ms for _, ms in self.passes[-RECENT_PASSES:]]
        return float(np.median(recent)) / self.reference_ms if recent else 1.0

    def median_ms(self) -> float:
        return float(np.median([ms for _, ms in self.passes])) if self.passes else 0.0


class IdleSelector(selectors.DefaultSelector):
    """The event loop's default selector, also adding up the wall time the
    loop spends waiting in it with nothing to run."""

    idle_ns = 0

    def select(self, timeout=None):
        started = time.perf_counter_ns()
        try:
            return super().select(timeout)
        finally:
            self.idle_ns += time.perf_counter_ns() - started


def host_clock(selector: IdleSelector | None = None) -> tuple[int, int, int]:
    """(wall, process CPU, event-loop idle) time now, in ns."""
    idle = selector.idle_ns if selector is not None else 0
    return time.perf_counter_ns(), time.process_time_ns(), idle


def stall_ms(start: tuple, end: tuple) -> float:
    """Wall time in ``[start, end]`` during which the host kept this process
    off the CPU although it had work: run-queue waits behind other processes
    and the hypervisor's steal on a shared host.

    That is wall time less process CPU time less event-loop idle time.  It
    is 0 when more than one thread is busy, because CPU time then exceeds
    wall time; a parallel program is measured on its wall time.
    """
    wall, cpu, idle = (b - a for a, b in zip(start, end))
    return max(0.0, wall - cpu - idle) * 1e-6
