"""Physical memory model: frames, byte storage, per-access KeyID.

The front-side bus carries 56 bits: low 40 = physical address, high 16 =
KeyID (paper Section IV-C). The memory model therefore takes a KeyID on
every access and routes data through the memory encryption engine, so data
written under one KeyID reads back as garbage under another — the property
the paper relies on to make PTW-based exfiltration useless (Section
VIII-C, "CS PTW").

Storage is sparse (dict of frame -> bytearray): modelled memories can be
"64 MB" without allocating 64 MB of host RAM until touched.

Zeroing a frame under an enclave key (:meth:`PhysicalMemory.zero_under`)
is deferred: the frame records "my lines hold Enc_K(0) under KeyID K"
and each line is stored, with its MAC, only when an access could tell
the difference. Every raw byte, MAC, return value and exception is the
one the eager write of a zero page would give.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE, HOST_KEYID, PAGE_SHIFT, PAGE_SIZE
from repro.errors import PhysicalAddressError

_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1
_LINES = PAGE_SIZE // CACHE_LINE_SIZE
_ALL_LINES = (1 << _LINES) - 1


def _line_mask(first: int, end: int) -> int:
    """Bits ``[first, end)`` of a frame's line mask."""
    return ((1 << (end - first)) - 1) << first if end > first else 0


def _runs(mask: int):
    """``(first, end)`` line-index runs of the set bits of ``mask``."""
    line = 0
    while mask:
        skip = (mask & -mask).bit_length() - 1
        mask >>= skip
        line += skip
        run = (mask ^ (mask + 1)).bit_length() - 1
        yield line, line + run
        mask >>= run
        line += run


class _ZeroUnder:
    """A frame whose ``pending`` lines hold Enc_K(0), not yet stored.

    ``cipher`` and ``mac_key`` are the ones KeyID ``keyid`` had when the
    frame was zeroed, so a line stored later is the line stored then.
    """

    __slots__ = ("cipher", "mac_key", "keyid", "pending")

    def __init__(self, cipher, mac_key: bytes, keyid: int) -> None:
        self.cipher = cipher
        self.mac_key = mac_key
        self.keyid = keyid
        self.pending = _ALL_LINES


class PhysicalMemory:
    """Byte-addressable physical memory organised in 4 KiB frames."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError("memory size must be a positive multiple of the page size")
        self.size_bytes = size_bytes
        self.num_frames = size_bytes >> PAGE_SHIFT
        self._frames: dict[int, bytearray] = {}
        #: frame -> its deferred zero-under-key; at most one per frame.
        self._pending: dict[int, _ZeroUnder] = {}
        #: Optional encryption engine; attached by the SoC at construction.
        self.encryption_engine = None
        #: Runtime sanitizer manager (None = off); see repro.sanitize.
        self.san = None

    # -- frame helpers ---------------------------------------------------------

    def _frame(self, frame_number: int) -> bytearray:
        if not 0 <= frame_number < self.num_frames:
            raise PhysicalAddressError(f"frame {frame_number} out of range")
        if frame_number not in self._frames:
            self._frames[frame_number] = bytearray(PAGE_SIZE)
        return self._frames[frame_number]

    def check_range(self, paddr: int, length: int) -> None:
        """Raise PhysicalAddressError on out-of-range accesses."""
        if paddr < 0 or paddr + length > self.size_bytes:
            raise PhysicalAddressError(
                f"access [{paddr:#x}, {paddr + length:#x}) beyond {self.size_bytes:#x}"
            )

    # -- raw access (what lands on the DRAM bus: ciphertext) -------------------

    def read_raw(self, paddr: int, length: int) -> bytes:
        """Read stored (post-engine, i.e. ciphertext) bytes."""
        if self._pending:
            self._materialize_range(paddr, length)
        return self._load(paddr, length)

    def write_raw(self, paddr: int, data: bytes) -> None:
        """Write bytes as-is, bypassing the encryption engine.

        This is the physical-attack surface: a cold-boot attacker reads
        and writes raw DRAM contents through these methods.
        """
        if self._pending:
            self._materialize_range(paddr, len(data))
        self._store(paddr, data)

    def _load(self, paddr: int, length: int) -> bytes:
        self.check_range(paddr, length)
        out = bytearray()
        while length:
            frame_number, offset = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            take = min(length, PAGE_SIZE - offset)
            out += self._frame(frame_number)[offset:offset + take]
            paddr += take
            length -= take
        return bytes(out)

    def _store(self, paddr: int, data: bytes) -> None:
        self.check_range(paddr, len(data))
        if self.san is not None:
            self.san.on_raw_write(self, paddr, data)
        view = memoryview(data)
        while view:
            frame_number, offset = paddr >> PAGE_SHIFT, paddr & (PAGE_SIZE - 1)
            take = min(len(view), PAGE_SIZE - offset)
            self._frame(frame_number)[offset:offset + take] = view[:take]
            paddr += take
            view = view[take:]

    # -- bus access (through the encryption engine) ----------------------------

    def read(self, paddr: int, length: int, keyid: int = HOST_KEYID) -> bytes:
        """Read through the memory encryption engine under ``keyid``.

        Integrity MACs are verified before data leaves the engine; a
        mismatch raises :class:`~repro.errors.IntegrityViolation`.
        """
        engine = self.encryption_engine
        if engine is None:
            return self.read_raw(paddr, length)
        touched = self._pending_in(paddr, length) if self._pending else ()
        zeros = self._settle_read(paddr, length, keyid, touched) if touched else ()
        if zeros and sum(hi - lo for lo, hi in zeros) == length:
            return bytes(length)
        raw = self._load(paddr, length)
        engine.verify_macs(paddr, length, keyid, self._load)
        data = engine.decrypt_access(paddr, raw, keyid)
        if not zeros:
            return data
        out = bytearray(data)
        for lo, hi in zeros:
            out[lo:hi] = bytes(hi - lo)
        return bytes(out)

    def write(self, paddr: int, data: bytes, keyid: int = HOST_KEYID) -> None:
        """Write through the memory encryption engine under ``keyid``."""
        engine = self.encryption_engine
        if engine is None:
            self.write_raw(paddr, data)
            return
        if self._pending:
            # Range first: settling forgets lines only a landed write replaces.
            self.check_range(paddr, len(data))
            self._settle_write(paddr, len(data), engine.records_macs(keyid))
        self._store(paddr, engine.encrypt_access(paddr, data, keyid))
        engine.record_macs(paddr, len(data), keyid, self._load)

    # -- deferred zero-under-key -------------------------------------------------

    def zero_under(self, frame_number: int, keyid: int) -> None:
        """Zero one frame *as seen under* ``keyid``.

        The effect of ``write_frame(frame_number, bytes(PAGE_SIZE),
        keyid)``. Under a programmed enclave key with integrity on, the
        store is deferred line by line: the frame's stale MACs go now
        (the write would replace all of them) and the sanitizers see the
        write now; a line's ciphertext and MAC land when an access could
        tell them apart, which reports nothing further.
        """
        engine = self.encryption_engine
        key = engine.zero_key(keyid) if engine is not None else None
        if key is None:
            self.write_frame(frame_number, bytes(PAGE_SIZE), keyid)
            return
        paddr = frame_number << PAGE_SHIFT
        self.check_range(paddr, PAGE_SIZE)
        if self.san is not None:
            self.san.on_zero_under(paddr, PAGE_SIZE)
        engine.drop_block_macs(paddr, PAGE_SIZE)
        self._pending[frame_number] = _ZeroUnder(*key, keyid)

    def _pending_in(self, paddr: int, length: int) -> tuple:
        """``(frame, record, mask)`` of pending lines in an access's line span."""
        touched = ()
        line = paddr >> _LINE_SHIFT
        # Inclusive; below ``line`` when a line-aligned access is empty.
        last = (paddr + length - 1) >> _LINE_SHIFT
        while line <= last:
            frame = line // _LINES
            stop = min(last + 1, (frame + 1) * _LINES)
            record = self._pending.get(frame)
            if record is not None:
                mask = record.pending & (((1 << (stop - line)) - 1)
                                         << (line - frame * _LINES))
                if mask:
                    touched += ((frame, record, mask),)
            line = stop
        return touched

    def _settle_read(self, paddr: int, length: int, keyid: int,
                     touched: tuple) -> list[tuple[int, int]]:
        """Result slices that read as zeros; materialize lines that would not.

        Lines pending under the read's own, still live cipher decrypt to
        zeros and carry no MAC yet, so verification skips them. Under any
        other cipher the stored ciphertext matters: materialize first.
        """
        live = self.encryption_engine.live_cipher(keyid)
        end = paddr + length
        zeros = []
        for frame, record, mask in touched:
            if record.cipher is not live:
                self._materialize(frame, record, mask)
                continue
            base = frame << PAGE_SHIFT
            for first, stop in _runs(mask):
                lo = max(base + (first << _LINE_SHIFT), paddr)
                hi = min(base + (stop << _LINE_SHIFT), end)
                if hi > lo:
                    zeros.append((lo - paddr, hi - paddr))
        return zeros

    def _materialize(self, frame_number: int, record: _ZeroUnder, mask: int,
                     macs: bool = True) -> None:
        """Store the ``mask`` lines and their MACs as the zeroing write would have.

        ``macs=False`` leaves the MACs to a write about to re-record them.
        """
        self._forget(frame_number, record, mask)
        frame = self._frame(frame_number)
        base = frame_number << PAGE_SHIFT
        for first, stop in _runs(mask):
            lo, hi = first << _LINE_SHIFT, stop << _LINE_SHIFT
            # Enc_K(0) is the keystream itself.
            frame[lo:hi] = record.cipher.keystream(base + lo, hi - lo)
            if macs:
                self.encryption_engine.install_macs(
                    base + lo, frame[lo:hi], record.keyid, record.mac_key)

    def _materialize_range(self, paddr: int, length: int) -> None:
        for frame, record, mask in self._pending_in(paddr, length):
            self._materialize(frame, record, mask)

    def _forget(self, frame_number: int, record: _ZeroUnder, mask: int) -> None:
        record.pending &= ~mask
        if not record.pending:
            del self._pending[frame_number]

    def _settle_write(self, paddr: int, length: int, remacs: bool) -> None:
        """Make pending lines under a write consistent before it lands.

        A line the write covers whole is overwritten; when the write also
        re-records (or drops) its MAC, nothing of the zeroing survives and
        the line is simply no longer pending. Every other touched line is
        materialized first: its untouched bytes, or its stale MAC, remain
        (the MAC only when the write will not replace it).
        """
        first_full = -(-paddr >> _LINE_SHIFT)
        end_full = (paddr + length) >> _LINE_SHIFT
        for frame, record, mask in self._pending_in(paddr, length):
            if remacs:
                offset = frame * _LINES
                full = mask & _line_mask(max(first_full - offset, 0),
                                         min(end_full - offset, _LINES))
                if full:
                    self._forget(frame, record, full)
                    mask &= ~full
            if mask:
                self._materialize(frame, record, mask, macs=not remacs)

    # -- page-granularity conveniences ------------------------------------------

    def zero_frame(self, frame_number: int) -> None:
        """Zero one frame (EMS zeroes pages before pool return / mapping)."""
        frame = self._frame(frame_number)
        self._pending.pop(frame_number, None)
        frame[:] = bytes(PAGE_SIZE)
        if self.san is not None:
            self.san.on_zero_frame(frame_number)
        if self.encryption_engine is not None:
            self.encryption_engine.drop_block_macs(frame_number << PAGE_SHIFT, PAGE_SIZE)

    def read_frame(self, frame_number: int, keyid: int = HOST_KEYID) -> bytes:
        """Read one full frame under ``keyid``."""
        return self.read(frame_number << PAGE_SHIFT, PAGE_SIZE, keyid)

    def write_frame(self, frame_number: int, data: bytes, keyid: int = HOST_KEYID) -> None:
        """Write one full frame under ``keyid``."""
        if len(data) != PAGE_SIZE:
            raise ValueError("frame writes must be exactly one page")
        self.write(frame_number << PAGE_SHIFT, data, keyid)
