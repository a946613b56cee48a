"""Measurement hashing and MAC primitives (SHA-3 based).

The paper uses SHA-3 for enclave measurement (EMEAS) and a 28-bit
SHA-3-based MAC for memory integrity (Section IV-C). Python's hashlib
provides SHA-3 natively, so these are faithful rather than substituted.
"""

from __future__ import annotations

import functools
import hashlib
import hmac

from repro.common.constants import MAC_BITS

MEASUREMENT_BYTES = 32


def measure(*chunks: bytes) -> bytes:
    """SHA3-256 measurement over the concatenation of ``chunks``.

    Used for enclave measurement, boot-stage verification, and as the
    compression step inside key derivation.
    """
    h = hashlib.sha3_256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.digest()


@functools.lru_cache(maxsize=256)
def _hmac_state(key: bytes) -> hmac.HMAC:
    """HMAC-SHA3-256 with ``key``'s pads absorbed, ready to ``copy()``.

    The key schedule is a pure function of the key, so one prepared
    state per key serves every MAC under it; the cache is bounded by key
    count, never by traffic.
    """
    return hmac.new(key, digestmod=hashlib.sha3_256)


def keyed_mac(key: bytes, data: bytes) -> bytes:
    """Full-width HMAC-SHA3-256 over ``data``."""
    state = _hmac_state(key).copy()
    state.update(data)
    return state.digest()


def truncated_mac(key: bytes, data: bytes, bits: int = MAC_BITS) -> int:
    """MAC truncated to ``bits`` bits, as stored per memory block.

    Commercial memory-integrity engines store short MACs (the paper cites
    a 28-bit SHA-3-based MAC) because per-block metadata is expensive; the
    detection semantics at model scale are identical to a full MAC.
    """
    full = keyed_mac(key, data)
    value = int.from_bytes(full[:8], "little")
    return value & ((1 << bits) - 1)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (models the engine's comparator)."""
    return hmac.compare_digest(a, b)
