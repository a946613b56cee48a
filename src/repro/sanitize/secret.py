"""The SECRET sanitizer: dynamic TEE004.

teelint's TEE004 proves *statically* that key material never flows to
observable sinks; this sanitizer re-proves it on the live simulation,
byte for byte. Key material is registered at mint time (key-manager
hooks feed the shared :class:`~repro.sanitize.shadow.TaintRegistry`);
every interesting surface is then scanned for registered values:

* **wire packets** — nothing tainted may enter a mailbox queue: the
  CS<->EMS boundary carries control and ciphertext only;
* **raw DRAM** — the bus carries post-engine bytes; a registered
  secret appearing in a ``write_raw`` payload means plaintext key
  material reached the physical-attack surface (cold-boot readable).
  Matches also populate the shadow map for the frame-lifecycle checks;
* **freed / regranted frames** — pool returns, EWB surrenders, and
  fresh grants are re-scanned so a broken scrub (or a re-grant of a
  dirty frame) is caught at the exact hand-over edge;
* **observability payloads** — flight-recorder fields (the black box
  lands verbatim in crash-dump artifacts) are scanned for raw and
  hex-encoded key material;
* **codec artifacts** — encoded sealed blobs / quotes headed for
  HostApp memory must be ciphertext throughout.

Taint *erasure* is implicit: the modelled cipher XORs an
address-tweaked keystream and digests hash their input, so neither
ever reproduces a registered value as a substring — encrypting or
digesting a secret is exactly what makes the scans pass.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.common.constants import PAGE_SHIFT, PAGE_SIZE


class SecretSanitizer:
    """Byte-granular secret tracking over memory, wire, and sinks."""

    def __init__(self, manager) -> None:
        self._manager = manager

    # -- helpers -----------------------------------------------------------------

    def _violation(self, kind: str, message: str) -> None:
        self._manager.report_violation("secret", kind, message)

    @staticmethod
    def _leaves(value: Any, path: str) -> Iterator[tuple[str, Any]]:
        """Flatten packet/payload structures to scannable leaves."""
        if isinstance(value, (bytes, bytearray, memoryview, str)):
            yield path, value
        elif isinstance(value, dict):
            for key, item in value.items():
                yield from SecretSanitizer._leaves(item, f"{path}.{key}")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                yield from SecretSanitizer._leaves(item, f"{path}[{index}]")

    def _scan_leaf(self, leaf: Any) -> list:
        registry = self._manager.registry
        if isinstance(leaf, str):
            hits = list(registry.scan(leaf.encode("latin-1", "ignore")))
            hits.extend(registry.scan_text(leaf))
            return hits
        return registry.scan(bytes(leaf))

    # -- wire packets ------------------------------------------------------------

    def check_wire_packet(self, packet: Any, direction: str) -> None:
        """Nothing tainted crosses the CS<->EMS boundary unencrypted."""
        self._manager.stats.wire_packets_scanned += 1
        kind = type(packet).__name__
        request_id = getattr(packet, "request_id",
                             getattr(packet, "batch_id", None))
        self._manager.event(f"wire.{direction}", packet=kind,
                            request_id=request_id)
        for field in ("args", "result", "requests", "responses"):
            payload = getattr(packet, field, None)
            if payload is None:
                continue
            if field in ("requests", "responses"):
                for sub in payload:
                    self.check_wire_packet(sub, f"{direction}.batched")
                continue
            for path, leaf in self._leaves(payload, field):
                for hit in self._scan_leaf(leaf):
                    self._violation(
                        "SECRET-LEAK",
                        f"{hit.label} crossed the CS<->EMS boundary "
                        f"unencrypted (mailbox {direction} {kind} "
                        f"{path}, request_id={request_id})")

    # -- raw DRAM ----------------------------------------------------------------

    def check_raw_write(self, memory, paddr: int, data: bytes) -> None:
        """Scan one bus write; taint the shadow map on matches."""
        del memory  # shadow state lives here, not in the memory model
        self._manager.stats.raw_writes_scanned += 1
        self.note_overwrite(paddr, len(data))
        for hit in self._manager.registry.scan(bytes(data)):
            first = paddr + hit.offset
            last = first + hit.length
            self._manager.event("shadow.mark", label=hit.label,
                                paddr=hex(first), bytes=hit.length)
            cursor = first
            while cursor < last:
                frame = cursor >> PAGE_SHIFT
                offset = cursor & (PAGE_SIZE - 1)
                take = min(last - cursor, PAGE_SIZE - offset)
                self._manager.shadow.mark(frame, offset, offset + take,
                                          hit.label)
                cursor += take
            self._violation(
                "SECRET-LEAK",
                f"{hit.label} landed on the DRAM bus unencrypted at "
                f"paddr {first:#x} ({hit.length} bytes) — the bus must "
                "carry ciphertext")

    def note_overwrite(self, paddr: int, length: int) -> None:
        """A bus write replaced whatever taint the range held before."""
        shadow = self._manager.shadow
        while length:
            frame = paddr >> PAGE_SHIFT
            offset = paddr & (PAGE_SIZE - 1)
            take = min(length, PAGE_SIZE - offset)
            shadow.clear_range(frame, offset, offset + take)
            paddr += take
            length -= take

    def note_zero_frame(self, frame: int) -> None:
        """Zeroing scrubs a frame; its shadow goes clean with it."""
        if self._manager.shadow.is_tainted(frame):
            self._manager.event("shadow.scrub", frame=frame)
        self._manager.shadow.clear_frame(frame)

    # -- frame lifecycle ---------------------------------------------------------

    def _scan_frame(self, memory, frame: int) -> list:
        self._manager.stats.frames_scanned += 1
        raw = memory.read_raw(frame << PAGE_SHIFT, PAGE_SIZE)
        return self._manager.registry.scan(raw)

    def check_granted_frames(self, memory, frames: list[int]) -> None:
        """A grant must hand over frames with no surviving taint."""
        for frame in frames:
            spans = self._manager.shadow.spans_for(frame)
            for span in spans:
                self._violation(
                    "SECRET-LEAK",
                    f"{span.label} survived in regranted frame {frame} "
                    f"(shadow bytes [{span.start}, {span.end})) — the "
                    "previous owner's key material reached a new owner")
            if not spans:
                for hit in self._scan_frame(memory, frame):
                    self._violation(
                        "SECRET-LEAK",
                        f"{hit.label} found in regranted frame {frame} "
                        f"at offset {hit.offset} — grant path skipped "
                        "the scrub")

    def check_freed_frames(self, memory, frames: list[int],
                           context: str) -> None:
        """A freed frame must be scrubbed before it changes hands."""
        for frame in frames:
            hits = self._scan_frame(memory, frame)
            for hit in hits:
                self._violation(
                    "SECRET-LEAK",
                    f"{hit.label} retained in freed frame {frame} at "
                    f"offset {hit.offset} after {context} — frame "
                    "scrubbing is broken (TEE004's freed-frame channel)")
            if not hits:
                self._manager.shadow.clear_frame(frame)

    # -- observable sinks --------------------------------------------------------

    def check_observable(self, surface: str, fields: dict) -> None:
        """Metrics/flightrec/log payloads stay free of key material."""
        self._manager.stats.observable_scans += 1
        for path, leaf in self._leaves(fields, surface):
            for hit in self._scan_leaf(leaf):
                self._violation(
                    "SECRET-LEAK",
                    f"{hit.label} reached observability payload {path} "
                    "— redact to a digest before recording")

    def check_codec(self, name: str, data: bytes) -> None:
        """Encoded artifacts headed for HostApp memory are ciphertext."""
        self._manager.event("codec.encode", artifact=name,
                            bytes=len(data))
        for hit in self._manager.registry.scan(bytes(data)):
            self._violation(
                "SECRET-LEAK",
                f"{hit.label} embedded raw in encoded artifact {name} "
                f"at offset {hit.offset} — artifacts leaving the EMS "
                "must be sealed/ciphertext throughout")
