"""Slot-indexed crypto caches: the fast kernel's memory-engine layer.

Profiling the reference interpreter puts ~80% of wall-clock inside the
memory-encryption datapath: every EALLOC/EFREE zeroes its pages
*through* the engine (one SHA3-256 keystream block per 32 bytes, a
byte-at-a-time Python XOR, and one HMAC-SHA3 MAC per 64-byte cache
line), so an allocation-churn workload spends its time recomputing the
same pure functions over and over. Both hot quantities *are* pure
functions:

* the keystream is a function of (key bytes, absolute position) only;
* a line MAC is a function of (MAC key, stored line content) only.

:class:`FastMemoryEncryptionEngine` therefore memoizes both at page
granularity in a :class:`FrameSlotCache` — flat preallocated lists with
one slot per physical frame, so the frame number *is* the cache index:
no per-event allocation, no hashing to locate an entry, no eviction
scan. Steady-state page zeroing collapses to one cached-stream lookup
(a zero page's ciphertext *is* the keystream), one page-sized
``memcmp`` to validate the MAC slot, and 64 plain dict stores into the
engine's MAC table.

Bit-for-bit fidelity is structural, not aspirational: every cache fill
calls the reference implementations (:meth:`KeystreamCipher.keystream`,
:func:`truncated_mac`), the non-zero XOR path runs numpy over the same
bytes the reference would XOR, and slots are validated by key *bytes*
plus raw content — never by KeyID, because KeyIDs are recycled across
enclave generations and a keyid-tagged slot could go stale. A slot
mismatch simply refills from the reference functions, so a wrong answer
is impossible by construction; the differential matrix
(tests/core/test_kernel_differential.py) pins the equality anyway.
"""

from __future__ import annotations

import numpy as np

from repro.common.constants import (
    CACHE_LINE_SIZE,
    HOST_KEYID,
    MAC_BITS,
    PAGE_SIZE,
)
from repro.crypto.hashes import truncated_mac
from repro.errors import IntegrityViolation
from repro.hw.encryption_engine import LineReader, MemoryEncryptionEngine

#: Cache lines per page (the MAC-list slot width).
_LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE

#: MAC-slot associativity: a churned frame alternates between its zeroed
#: and data-bearing content, so two ways capture the steady state.
_MAC_WAYS = 2

#: The all-zero page every EALLOC/EFREE writes through the engine.
_ZERO_PAGE = bytes(PAGE_SIZE)


def xor_page(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings via numpy (the vectorized hot loop).

    Bit-identical to ``bytes(a ^ b for a, b in zip(data, stream))``,
    ~100x faster at 4 KiB.
    """
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8),
        np.frombuffer(stream, dtype=np.uint8)).tobytes()


def _xor(data: bytes, stream: bytes) -> bytes:
    """Size-dispatched XOR: big-int arithmetic below numpy's win point."""
    if len(data) <= 128:
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(stream, "little")
                ).to_bytes(len(data), "little")
    return xor_page(data, stream)


class FrameSlotCache:
    """Per-frame memo slots, indexed directly by physical frame number.

    Two independent memos per frame:

    * ``stream_key[f]`` / ``stream[f]`` — the page keystream for the key
      that last encrypted frame ``f`` (direct-mapped: keys change only
      when a frame moves between enclaves);
    * ``mac_entries[f]`` — up to :data:`_MAC_WAYS` recent
      ``(MAC key, raw stored page, 64 line MACs)`` triples, most recent
      first. Two ways because a churned frame alternates between exactly
      two contents — the zeroed page written at EALLOC and the data the
      enclave stores — and a direct-mapped slot would thrash on that
      alternation.

    Slots are permanently owned by their frame (stable reuse: frame ``f``
    always lands in slot ``f``), validated by key bytes + content on
    every hit, and refilled in place on mismatch — a free list in the
    classical sense is unnecessary because the frame space is dense and
    bounded at construction.
    """

    __slots__ = ("num_frames", "stream_key", "stream", "mac_entries",
                 "stream_hits", "stream_fills", "mac_hits", "mac_fills")

    def __init__(self, num_frames: int) -> None:
        self.num_frames = num_frames
        self.stream_key: list[bytes | None] = [None] * num_frames
        self.stream: list[bytes | None] = [None] * num_frames
        self.mac_entries: list[list[tuple[bytes, bytes, list[int]]]] = [
            [] for _ in range(num_frames)]
        # Effectiveness counters (host-side diagnostics, not modelled
        # state).
        self.stream_hits = 0
        self.stream_fills = 0
        self.mac_hits = 0
        self.mac_fills = 0

    def page_stream(self, frame: int, cipher) -> bytes:
        """The frame-aligned page keystream under ``cipher``'s key."""
        key = cipher.key
        if self.stream_key[frame] == key:
            self.stream_hits += 1
        else:
            self.stream[frame] = cipher.keystream(frame * PAGE_SIZE,
                                                  PAGE_SIZE)
            self.stream_key[frame] = key
            self.stream_fills += 1
        return self.stream[frame]

    def page_macs(self, frame: int, mac_key: bytes, raw: bytes) -> list[int]:
        """The 64 per-line MACs of raw page content under ``mac_key``."""
        entries = self.mac_entries[frame]
        for way, (entry_key, entry_raw, macs) in enumerate(entries):
            if entry_key == mac_key and entry_raw == raw:
                self.mac_hits += 1
                if way:
                    entries.insert(0, entries.pop(way))
                return macs
        macs = [truncated_mac(mac_key,
                              raw[off:off + CACHE_LINE_SIZE], MAC_BITS)
                for off in range(0, PAGE_SIZE, CACHE_LINE_SIZE)]
        entries.insert(0, (mac_key, raw, macs))
        del entries[_MAC_WAYS:]
        self.mac_fills += 1
        return macs


class FastMemoryEncryptionEngine(MemoryEncryptionEngine):
    """The reference engine with frame-slot memoization on the page paths.

    Only whole, frame-aligned page accesses take the cached path — that
    is where the simulation spends its time (page zeroing on every
    EALLOC/EFREE/EDESTROY, page writes on EADD/swap). Partial or
    unaligned accesses, host-KeyID traffic, and integrity-off
    configurations fall through to the reference implementation
    unchanged.
    """

    def __init__(self, key_slots: int | None = None,
                 integrity_enabled: bool = True, *,
                 num_frames: int) -> None:
        if key_slots is None:
            super().__init__(integrity_enabled=integrity_enabled)
        else:
            super().__init__(key_slots=key_slots,
                             integrity_enabled=integrity_enabled)
        self.slots = FrameSlotCache(num_frames)
        #: line paddr -> (mac key, line content, mac): a pure-function
        #: memo over :func:`truncated_mac` for sub-page traffic (page-
        #: table-entry reads re-verify the same unchanged lines over and
        #: over). One entry per *touched* line, replaced in place when
        #: the content changes — never invalidated, never stale.
        self._mac_memo: dict[int, tuple[bytes, bytes, int]] = {}

    # -- data transform ---------------------------------------------------------

    def encrypt_access(self, paddr: int, data: bytes, keyid: int) -> bytes:
        """Transform a store, serving the keystream from frame slots."""
        if keyid == HOST_KEYID:
            return data
        stream = self._stream_for(paddr, len(data), keyid)
        if stream is None:
            return super().encrypt_access(paddr, data, keyid)
        if len(data) == PAGE_SIZE and data == _ZERO_PAGE:
            # XOR with zeros is the identity: the ciphertext of a zeroed
            # page is the keystream itself.
            return stream
        return _xor(data, stream)

    def decrypt_access(self, paddr: int, raw: bytes, keyid: int) -> bytes:
        """Transform a load, serving the keystream from frame slots."""
        if keyid == HOST_KEYID:
            return raw
        stream = self._stream_for(paddr, len(raw), keyid)
        if stream is None:
            return super().decrypt_access(paddr, raw, keyid)
        if raw == stream:
            # The stored bytes *are* the keystream: the plaintext is zero
            # (the XOR identity again, any length).
            return bytes(len(raw))
        return _xor(raw, stream)

    def _stream_for(self, paddr: int, length: int, keyid: int) -> bytes | None:
        """The keystream window for an access, composed from page slots.

        The keystream is a pure function of (key, absolute position), so
        any slice of a cached page stream is byte-identical to computing
        the window directly. Fully covered pages go through the slot
        cache (fill amortized by the coverage); partially covered pages
        are sliced only from *warm* slots — a cold slot computes just the
        edge window rather than paying a full-page fill for an 8-byte
        page-table-entry access. Unprogrammed KeyIDs return None and fall
        back to the reference's throwaway-cipher path.
        """
        cipher = self._ciphers.get(keyid)
        if cipher is None:
            return None
        slots = self.slots
        key = cipher.key
        frame, offset = divmod(paddr, PAGE_SIZE)
        if not offset and length == PAGE_SIZE:
            return slots.page_stream(frame, cipher)
        if offset + length <= PAGE_SIZE:
            if slots.stream_key[frame] != key:
                return None
            slots.stream_hits += 1
            return slots.stream[frame][offset:offset + length]
        parts = []
        pos = paddr
        end = paddr + length
        while pos < end:
            frame, offset = divmod(pos, PAGE_SIZE)
            take = min(PAGE_SIZE - offset, end - pos)
            if take == PAGE_SIZE:
                parts.append(slots.page_stream(frame, cipher))
            elif slots.stream_key[frame] == key:
                slots.stream_hits += 1
                parts.append(slots.stream[frame][offset:offset + take])
            else:
                parts.append(cipher.keystream(pos, take))
            pos += take
        return b"".join(parts)

    # -- integrity --------------------------------------------------------------

    def _line_mac(self, mac_key: bytes, line: int, content: bytes) -> int:
        memo = self._mac_memo.get(line)
        if memo is not None and memo[0] == mac_key and memo[1] == content:
            return memo[2]
        mac = truncated_mac(mac_key, content, MAC_BITS)
        self._mac_memo[line] = (mac_key, content, mac)
        return mac

    def record_macs(self, paddr: int, length: int, keyid: int,
                    read_raw: LineReader) -> None:
        """Record line MACs, page-at-a-time through the MAC slots."""
        if keyid == HOST_KEYID or not self.integrity_enabled:
            super().record_macs(paddr, length, keyid, read_raw)
            return
        mac_key = self._mac_keys.get(keyid)
        if mac_key is None:
            return
        table = self._macs
        if length and not paddr % PAGE_SIZE and not length % PAGE_SIZE:
            # One page-sized raw read per page replaces 64 line reads;
            # the slot check is a memcmp against the content the cached
            # MAC list was computed over.
            for start in range(paddr, paddr + length, PAGE_SIZE):
                raw = read_raw(start, PAGE_SIZE)
                macs = self.slots.page_macs(start // PAGE_SIZE, mac_key, raw)
                line = start
                for mac in macs:
                    table[line] = (keyid, mac)
                    line += CACHE_LINE_SIZE
            return
        for line in self._lines(paddr, length):
            content = read_raw(line, CACHE_LINE_SIZE)
            table[line] = (keyid, self._line_mac(mac_key, line, content))

    def verify_macs(self, paddr: int, length: int, keyid: int,
                    read_raw: LineReader) -> None:
        """Verify line MACs with the reference's exact skip rules."""
        if keyid == HOST_KEYID or not self.integrity_enabled:
            return
        mac_key = self._mac_keys.get(keyid)
        if mac_key is None:
            return
        table = self._macs
        if length and not paddr % PAGE_SIZE and not length % PAGE_SIZE:
            for start in range(paddr, paddr + length, PAGE_SIZE):
                raw = read_raw(start, PAGE_SIZE)
                macs = self.slots.page_macs(start // PAGE_SIZE, mac_key, raw)
                line = start
                for mac in macs:
                    recorded = table.get(line)
                    # Same skip rules as the reference: unrecorded lines
                    # and lines owned by a different key domain pass
                    # unchecked.
                    if recorded is not None and recorded[0] == keyid \
                            and recorded[1] != mac:
                        raise IntegrityViolation(
                            f"MAC mismatch at line {line:#x} (keyid {keyid})"
                        )
                    line += CACHE_LINE_SIZE
            return
        for line in self._lines(paddr, length):
            recorded = table.get(line)
            if recorded is None or recorded[0] != keyid:
                continue
            content = read_raw(line, CACHE_LINE_SIZE)
            if self._line_mac(mac_key, line, content) != recorded[1]:
                raise IntegrityViolation(
                    f"MAC mismatch at line {line:#x} (keyid {keyid})"
                )

    def drop_block_macs(self, paddr: int, length: int) -> None:
        """Forget MACs for a block without the reference's generator."""
        if not paddr % CACHE_LINE_SIZE and not length % CACHE_LINE_SIZE:
            table = self._macs
            line = paddr
            for _ in range(length // CACHE_LINE_SIZE):
                table.pop(line, None)
                line += CACHE_LINE_SIZE
            return
        super().drop_block_macs(paddr, length)
