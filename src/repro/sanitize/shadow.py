"""Byte-granular taint shadow state for the SECRET sanitizer.

Two cooperating structures:

* :class:`TaintRegistry` — the set of *known secret byte strings*
  (key material registered at mint time by the key manager hooks).
  Scanning a buffer finds every occurrence of every registered value.
  This gives the shadow-map laws for free:

  - **monotone under copy/concat** — if a buffer contains a secret,
    any buffer it is copied or concatenated into contains it too;
  - **erasure only via modelled encrypt/digest** — the keystream
    cipher XORs an address-tweaked SHA3 stream over the plaintext and
    digests hash it, so neither ciphertext nor digest ever contains
    the secret as a substring (for key-length secrets, with
    overwhelming probability); slicing away part of the match also
    erases it, exactly like real shadow memory.

  The scan costs the same however many secrets are registered. Every
  secret is at least :data:`MIN_SECRET_BYTES` (16) long, so an
  occurrence at buffer offset ``o`` covers the whole 8-aligned buffer
  word at ``a = ceil(o / 8) * 8`` (``a + 8 <= o + 15``), and that word
  is ``secret[s:s + 8]`` for the shift ``s = a - o`` in ``0..7``.
  Registration indexes those eight words of each secret; a scan looks
  the buffer's aligned words up in the index and runs ``find`` only
  for the secrets one of them names. No occurrence is missed, and the
  ``find`` confirm keeps false candidates out of the hits.

* :class:`ShadowMap` — per-frame tainted byte spans over the modelled
  physical memory, maintained from the ``write_raw`` / ``zero_frame``
  hooks. The freed-/regranted-frame checks walk it.

Registered values shorter than :data:`MIN_SECRET_BYTES` or with fewer
than 4 distinct byte values are refused: scanning for them would match
structural bytes (zero fill, counters) and drown the signal.
"""

from __future__ import annotations

import dataclasses
import sys


#: Smallest registrable secret; everything the key manager mints is 32.
MIN_SECRET_BYTES = 16

#: A value this monotonous is filler, not key material.
_MIN_DISTINCT_BYTES = 4


@dataclasses.dataclass(frozen=True)
class TaintHit:
    """One secret match inside a scanned buffer."""

    label: str      #: registry label of the matched value
    offset: int     #: byte offset of the match in the buffer
    length: int     #: length of the matched value


@dataclasses.dataclass
class ScanStats:
    """Probe counters of :meth:`TaintRegistry.scan` and ``scan_text``.

    Both depend on the scanned buffers, never on how many secrets are
    registered (tests/sanitize/test_scan_history.py).
    """

    #: aligned 8-byte buffer words looked up in the index.
    scan_words: int = 0
    #: candidate secrets confirmed with ``find``.
    scan_confirms: int = 0


def _shift_words(needle: bytes) -> set[int]:
    """``needle[s:s + 8]`` for ``s`` in 0..7, as the scan's native ints."""
    return {int.from_bytes(needle[s:s + 8], sys.byteorder)
            for s in range(8)}


def _add_words(index: dict[int, tuple[int, ...]], needle: bytes,
               holder: tuple[int]) -> None:
    """File one secret's registration order under its shifted words."""
    for word in _shift_words(needle):
        held = index.get(word)
        index[word] = holder if held is None else held + holder


class TaintRegistry:
    """The known-secret dictionary scanned against every surface."""

    def __init__(self, stats: ScanStats | None = None) -> None:
        self._labels: dict[bytes, str] = {}
        #: registered values, in registration order.
        self._values: list[bytes] = []
        #: aligned word -> registration orders of the secrets holding
        #: it, raw and hex-encoded.
        self._index: dict[int, tuple[int, ...]] = {}
        self._hex_index: dict[int, tuple[int, ...]] = {}
        self.stats = stats if stats is not None else ScanStats()

    def __len__(self) -> int:
        return len(self._labels)

    def register(self, value: bytes, label: str) -> bool:
        """Add one secret value; returns False when refused.

        The first label wins for duplicate values (re-derivations of
        the same key keep their original mint label).
        """
        value = bytes(value)
        if len(value) < MIN_SECRET_BYTES:
            return False
        if len(set(value)) < _MIN_DISTINCT_BYTES:
            return False
        if value in self._labels:
            return False
        holder = (len(self._values),)
        self._labels[value] = label
        self._values.append(value)
        _add_words(self._index, value, holder)
        _add_words(self._hex_index, value.hex().encode("ascii"), holder)
        return True

    def labels(self) -> list[str]:
        """Every registered label, in registration order."""
        return list(self._labels.values())

    def scan(self, data: bytes) -> list[TaintHit]:
        """All occurrences of any registered secret in ``data``.

        Sorted by offset; ties keep registration order.
        """
        data = bytes(data)
        if len(data) < MIN_SECRET_BYTES or not self._labels:
            return []
        return self._confirm(self._index, data, data, hexed=False)

    def scan_text(self, text: str) -> list[TaintHit]:
        """Hex-encoded secret occurrences inside a string payload."""
        if len(text) < 2 * MIN_SECRET_BYTES or not self._labels:
            return []
        # One byte per character, so word offsets are text offsets.
        return self._confirm(self._hex_index,
                             text.encode("ascii", "replace"), text,
                             hexed=True)

    def _confirm(self, index: dict[int, tuple[int, ...]], data: bytes,
                 haystack: bytes | str, *, hexed: bool) -> list[TaintHit]:
        """Candidates from ``data``'s aligned words, found in ``haystack``."""
        words = memoryview(data)[:len(data) & ~7].cast("Q")
        self.stats.scan_words += len(words)
        found = index.keys() & words
        if not found:
            return []
        orders = sorted({order for word in found for order in index[word]})
        self.stats.scan_confirms += len(orders)
        hits: list[TaintHit] = []
        for order in orders:
            value = self._values[order]
            label = self._labels[value]
            needle = value.hex() if hexed else value
            start = haystack.find(needle)
            while start != -1:
                hits.append(TaintHit(label, start, len(needle)))
                start = haystack.find(needle, start + 1)
        hits.sort(key=lambda hit: hit.offset)
        return hits


@dataclasses.dataclass(frozen=True)
class ShadowSpan:
    """One tainted byte range inside one frame."""

    start: int      #: first tainted byte offset in the frame
    end: int        #: one past the last tainted byte
    label: str      #: which secret landed here


class ShadowMap:
    """frame number -> tainted spans, from the raw-write hooks."""

    def __init__(self) -> None:
        self._spans: dict[int, list[ShadowSpan]] = {}

    def mark(self, frame: int, start: int, end: int, label: str) -> None:
        """Taint ``[start, end)`` of ``frame``."""
        if end <= start:
            return
        self._spans.setdefault(frame, []).append(
            ShadowSpan(start, end, label))

    def clear_frame(self, frame: int) -> None:
        """Drop every span of one frame (zeroing scrubs it)."""
        self._spans.pop(frame, None)

    def clear_range(self, frame: int, start: int, end: int) -> None:
        """Untaint ``[start, end)``: overwrites split surviving spans."""
        spans = self._spans.get(frame)
        if not spans:
            return
        kept: list[ShadowSpan] = []
        for span in spans:
            if span.end <= start or span.start >= end:
                kept.append(span)
                continue
            if span.start < start:
                kept.append(ShadowSpan(span.start, start, span.label))
            if span.end > end:
                kept.append(ShadowSpan(end, span.end, span.label))
        if kept:
            self._spans[frame] = kept
        else:
            del self._spans[frame]

    def spans_for(self, frame: int) -> list[ShadowSpan]:
        """The tainted spans of one frame (empty when clean)."""
        return list(self._spans.get(frame, ()))

    def is_tainted(self, frame: int) -> bool:
        """Does the frame hold at least one tainted byte?"""
        return frame in self._spans

    def tainted_frames(self) -> list[int]:
        """Every frame with live taint, ascending."""
        return sorted(self._spans)

    def total_tainted_bytes(self) -> int:
        """Sum of span widths (overlaps counted once per span)."""
        return sum(span.end - span.start
                   for spans in self._spans.values() for span in spans)
