"""Scale host timings to a fixed reference host speed.

The hosts this benchmark runs on share their cores with other tenants,
and their speed drifts by a third or more within seconds and across
minutes. A fixed pure-Python kernel (dict updates, bytearray slicing,
SHA3-256 over 64 bytes, page-sized copies and scans: the simulator's own
mix of work) is timed between blocks of ops. Each block's op times are
multiplied by ``REFERENCE_S / kernel time``, the kernel time being the
mean of the samples taken just before and just after the block. The
kernel does not touch the program, so a change to the program moves
scaled times exactly as it moves raw ones, while drift of the host
largely cancels. Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Callable, TypeVar

#: Kernel time that defines the reference speed: about what the kernel
#: takes in the fastest stretches of a 2-vCPU x86-64 VM on CPython 3.11.
REFERENCE_S = 0.0022
#: A kernel sample is taken after every this much op time.
BLOCK_S = 0.01
_KERNEL_ITERS = 1250

T = TypeVar("T")


def kernel_seconds() -> float:
    """Host time of one pass of the calibration kernel."""
    clock = time.perf_counter
    sha3 = hashlib.sha3_256
    counts: dict[int, int] = {}
    blob = bytearray(256)
    page = bytes(4096)
    t0 = clock()
    for i in range(_KERNEL_ITERS):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        blob[i & 255] = key
        sha3(bytes(blob[:64])).digest()
        if not i & 15:
            # Page-sized copy and scan: frame zeroing and sanitizer scans
            # are memory-bound, and other tenants slow those differently.
            bytearray(page).find(b"\x01\x02\x03\x04")
    return clock() - t0


def _kernel_median(samples: int = 3) -> float:
    return statistics.median(kernel_seconds() for _ in range(samples))


def timed_scaled(fn: Callable[[], T]) -> tuple[T, float]:
    """Call ``fn`` once; return its result and its scaled host time.

    A one-off call has no neighbouring blocks, so the kernel is sampled
    three times on each side.
    """
    before = _kernel_median()
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    return result, elapsed * 2 * REFERENCE_S / (before + _kernel_median())


class ScaledDurations:
    """Op durations, raw and scaled block by block."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._block: list[float] = []
        self._block_s = 0.0
        self._before = kernel_seconds()

    def add(self, seconds: float) -> None:
        """Record one op's raw host time (call outside the timed region)."""
        self._block.append(seconds)
        self._block_s += seconds
        if self._block_s >= BLOCK_S:
            self.flush()

    def flush(self) -> None:
        """Close the current block: sample the kernel and scale it."""
        if not self._block:
            return
        after = kernel_seconds()
        factor = 2 * REFERENCE_S / (self._before + after)
        self.raw.extend(self._block)
        self.scaled.extend(d * factor for d in self._block)
        self._before = after
        self._block = []
        self._block_s = 0.0
