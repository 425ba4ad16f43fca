"""A fixed reference kernel that measures how fast the host runs right now.

The shared hosts this benchmark runs on change speed by themselves: the
same code takes up to 1.7x as long from one second to the next, invisibly
to the guest (no steal time, process CPU time equal to wall time).  Every
op is therefore timed next to this kernel, and its host time is reported
in reference-host seconds:

    reported = measured * REF_S / (kernel time around the op)

The kernel is a small set-associative cache model in plain Python --
method calls, attribute and dict access, short list scans, the instruction
mix of the simulator itself -- so a slow stretch of the host slows it in
the same proportion as the simulator (README, Noise).  It imports nothing
from the repository, creates no container objects while timed and runs
with the garbage collector off, so neither the code under test nor the
heap it leaves behind can change its time.

Do not change this file: it is the yardstick every commit's figures are
measured against, and changing it rescales every host-time metric.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List

#: kernel time that defines a reference-host second: about the kernel's
#: mean time on a 2-vCPU 2.0 GHz Xeon container
REF_S = 0.004

_SETS = 64
_WAYS = 4


class _Line:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.dirty = False
        self.stamp = 0


class _Cache:
    def __init__(self) -> None:
        self.sets = [[_Line() for _ in range(_WAYS)] for _ in range(_SETS)]
        self.clock = 0
        self.stats = {"hit": 0, "miss": 0, "writeback": 0}

    def reset(self) -> None:
        for ways in self.sets:
            for line in ways:
                line.tag = -1
                line.dirty = False
                line.stamp = 0
        self.clock = 0
        for key in self.stats:
            self.stats[key] = 0

    def access(self, addr: int, write: bool) -> bool:
        self.clock += 1
        ways = self.sets[(addr >> 6) % _SETS]
        tag = addr >> 12
        for line in ways:
            if line.tag == tag:
                line.stamp = self.clock
                line.dirty = line.dirty or write
                self.stats["hit"] += 1
                return True
        victim = ways[0]
        for line in ways:
            if line.stamp < victim.stamp:
                victim = line
        if victim.dirty:
            self.stats["writeback"] += 1
        victim.tag = tag
        victim.stamp = self.clock
        victim.dirty = write
        self.stats["miss"] += 1
        return False


_rng = random.Random(20240601)
_TRACE = [(_rng.randrange(1 << 16), _rng.random() < 0.3)
          for _ in range(6000)]
_CACHE = _Cache()


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cache = _CACHE
        cache.reset()
        access = cache.access
        t0 = time.perf_counter()
        for addr, write in _TRACE:
            access(addr, write)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample(seconds: float) -> List[float]:
    """Kernel times from running the kernel for about ``seconds``."""
    end = time.perf_counter() + seconds
    times = [kernel_s()]
    while time.perf_counter() < end:
        times.append(kernel_s())
    return times


def speed(kernel: List[float]) -> float:
    """The host's mean speed relative to the reference host over the
    stretch in which the ``kernel`` times were taken.

    The host flips between a fast and a slow state every second or so, so
    kernel times are bimodal: their median jumps between the two states,
    their mean follows the share of time spent in each.
    """
    return REF_S / statistics.fmean(kernel)


def scale(seconds: List[float], kernel: List[float]) -> List[float]:
    """Reference-host seconds of ops timed between kernel runs.

    ``kernel`` holds one kernel time before each op and one after the last,
    so op ``i`` ran between ``kernel[i]`` and ``kernel[i + 1]``.
    """
    return [s * 2 * REF_S / (before + after)
            for s, before, after in zip(seconds, kernel, kernel[1:])]
