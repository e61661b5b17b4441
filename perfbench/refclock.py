"""Timing in reference seconds.

The benchmark runs on shared virtual machines whose speed drifts with the
host's load: on a 2-vCPU VM the same push loop or checkpoint ran 10-20%
slower or faster for tens of seconds at a time, so raw wall times of two
runs of the same code spread wider than any useful regression bound.  A
fixed *calibration kernel* runs right before and right after every timed
sample, and the sample is reported in reference seconds::

    reference = wall * REF_KERNEL_S / sqrt(kernel_before * kernel_after)

that is, the time the sample would have taken on a machine that runs the
kernel in ``REF_KERNEL_S``.  The kernel does not touch the program under
test, so a change to the program scales its reference times as it scales
its wall times; only the machine's drift is divided out.  On that VM, over
two sets of ten runs of each workload, every end-to-end time then spread
by at most 0.07 (IQR over median).

The kernel must run while the program is idle (no pending batch in a worker,
no frame in flight), so it measures the machine and not contention with the
program; the callers calibrate after a flush, an ack or a synchronous call.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: the kernel's time on the reference machine (about its median on a 2-vCPU
#: x86-64 VM with python 3.11); only a scale: changing it, or the kernel,
#: rescales every reported time, so results before and after do not compare
REF_KERNEL_S = 0.015

#: the kernel's memory part gathers at random from an 8 MiB table, larger
#: than a core's own caches, so it feels the shared cache and memory
#: bandwidth that neighbours on the host contend for (the program's heap is
#: far larger than any cache)
_TABLE = np.random.default_rng(0).permutation(1 << 20).astype(np.int64)
_PICKS = np.random.default_rng(1).integers(0, 1 << 20, 1 << 17)


def kernel() -> float:
    """Wall seconds of a fixed mix of integer arithmetic, tuple hashing,
    dict inserts and lookups, a keyed sort, many numpy calls on small arrays
    (the shape of the planner's simplex), and random reads from a table
    beyond a core's caches (10-15 ms on a 2-vCPU VM).

    The garbage collector is off while it runs: a collection of the
    program's heap inside the kernel would read as a slow machine.  The
    kernel frees what it allocated, so it leaves the collector's counts
    where it found them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i % 7
        table: dict = {}
        for i in range(8_000):
            table.setdefault((i % 997, i * 7 % 1009), []).append(i)
        for key, values in table.items():
            total += len(values) + key[0]
        sorted(table, key=lambda k: k[1])
        del table
        row = np.linspace(0.0, 1.0, 24)
        for _ in range(400):
            outer = np.outer(row, row)
            outer -= outer.mean(axis=0)
            row = np.abs(outer[1]) + 0.5
        for _ in range(4):
            total += int(_TABLE[_TABLE[_PICKS]].sum())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Calibrations around timed samples.

    ``rebase()`` calibrates before a sample; ``factor()`` calibrates after
    it and returns the factor that turns the sample's wall seconds into
    reference seconds.  The calibration ``factor()`` takes also serves as
    the *before* of a sample that follows at once.
    """

    def __init__(self) -> None:
        self.last = kernel()
        self.kernel_s: list[float] = [self.last]

    def rebase(self) -> None:
        self.last = kernel()
        self.kernel_s.append(self.last)

    def factor(self) -> float:
        now = kernel()
        self.kernel_s.append(now)
        scale = REF_KERNEL_S / math.sqrt(self.last * now)
        self.last = now
        return scale
