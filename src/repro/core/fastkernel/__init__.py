"""The numpy-backed fast execution engine (``engine="fast"``).

Selectable per run through :class:`~repro.core.config.SystemConfig`
(``engine="fast"``; the reference interpreter remains the default). Two
layers, each differentially pinned to the reference:

* :class:`FastMemoryEncryptionEngine` — frame-slot-indexed keystream and
  MAC caches over the memory-encryption datapath (the measured ~80%
  hotspot), with a numpy XOR for non-zero pages;
* :class:`FastEMCall` — the clean-weather EMCall transport compiled down
  to direct EMS dispatch plus precompiled cost-table arithmetic, with
  array-batched per-core cycle charges.

Bit-for-bit equivalence with ``engine="reference"`` is enforced by
``tests/core/test_kernel_differential.py``. See ``docs/performance.md``
for the architecture, and for why lazy zero-under-key in
:class:`~repro.hw.memory.PhysicalMemory` has made the kernel's speedup
marginal.
"""

from repro.core.fastkernel.engine import FastEMCall
from repro.core.fastkernel.slots import (
    FastMemoryEncryptionEngine,
    FrameSlotCache,
    xor_page,
)

__all__ = [
    "FastEMCall",
    "FastMemoryEncryptionEngine",
    "FrameSlotCache",
    "xor_page",
]
