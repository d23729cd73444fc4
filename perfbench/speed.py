"""Machine-speed reference for the benchmark's timings.

The shared VMs this benchmark runs on change speed by 15% within a
minute and by up to 2x over ten (other tenants), which swamps any
comparison of raw host times between runs.  So a workload child times
a fixed pure-Python reference, ``reference_loop``, about once a second
between its operations, and reports each operation's time scaled to
the reference machine: raw seconds x REF_NOMINAL_S / (reference seconds
measured just before and just after it).  Rates scale the other way.

This holds for work done in one process: the simulations of exact-ci,
exact-scal and sampled, and the set-up probes.  The figures workload's
timings span process start-up, a two-worker pool and 900 cache files;
the reference does not track those (scaling widened their spread in
every trial), so they are reported as timed.

The reference is shaped like the simulator's own inner loop: small
``__slots__`` objects flowing through a deque window, a completion heap
and a rename dict.  Of the candidates tried (this one, and random
updates of a 1k-entry and of a 64k-entry dict), it tracked the
simulator's slowdowns best:
across a 1.8x swing its ratio to a ci and a scal simulation varied by
9% (quartile distance over median), against 68% for the raw times.  It
depends on nothing in ``repro`` and collects no garbage while timed, so
the simulator's heap cannot change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque
from heapq import heappop, heappush
from typing import List, Optional, Tuple

clock = time.perf_counter

#: reference_loop's seconds on a quiet run of the reference machine, a
#: 2-vCPU 2.0 GHz Xeon VM
REF_NOMINAL_S = 0.085
REF_CYCLES = 20_000


class _Op:
    __slots__ = ("seq", "dst", "src", "after", "done")


def reference_loop() -> float:
    """Seconds for REF_CYCLES cycles of a toy four-wide pipeline."""
    window: deque = deque()
    pending: list = []
    rename: dict = {}
    regs = [0] * 64
    x = 12345
    seq = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for cycle in range(REF_CYCLES):
            for _ in range(4):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                op = _Op()
                op.seq = seq
                seq += 1
                op.dst = x & 63
                op.src = (x >> 6) & 63
                op.after = rename.get(op.src, 0)
                rename[op.dst] = op.seq
                op.done = cycle + 1 + (x >> 12) % 7
                window.append(op)
                heappush(pending, (op.done, op.seq, op))
            while pending and pending[0][0] <= cycle:
                op = heappop(pending)[2]
                regs[op.dst] += op.after & 1
            while window and window[0].done <= cycle:
                window.popleft()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Reference timings taken between a workload's operations."""

    #: seconds of work between two reference timings (each costs ~0.085 s)
    INTERVAL_S = 1.0

    def __init__(self) -> None:
        #: (start time, reference seconds)
        self.samples: List[Tuple[float, float]] = []
        reference_loop()  # the first call pays for page faults: discarded

    def sample(self) -> None:
        t = clock()
        self.samples.append((t, reference_loop()))

    def sample_if_due(self) -> None:
        if not self.samples or clock() - self.samples[-1][0] > \
                self.INTERVAL_S:
            self.sample()

    def slowdown(self, t0: Optional[float] = None,
                 t1: Optional[float] = None) -> float:
        """Measured over nominal reference time: around ``[t0, t1]``
        (the last sample before and the first after), or the whole
        run's median without arguments."""
        if t0 is None:
            near = [statistics.median(s for _, s in self.samples)]
        else:
            near = [s for t, s in self.samples if t <= t0][-1:] + \
                   [s for t, s in self.samples if t >= t1][:1]
        return sum(near) / len(near) / REF_NOMINAL_S
