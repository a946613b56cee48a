"""Memory encryption engine: key slots, EMS gating, integrity MACs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import CACHE_LINE_SIZE, PAGE_SIZE
from repro.errors import IntegrityViolation, IsolationViolation, KeySlotExhausted
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.memory import PhysicalMemory


def test_only_ems_programs_keys():
    engine = MemoryEncryptionEngine()
    with pytest.raises(IsolationViolation):
        engine.program_key(1, b"k" * 32, from_ems=False)
    with pytest.raises(IsolationViolation):
        engine.release_key(1, from_ems=False)


def test_keyid_zero_reserved():
    engine = MemoryEncryptionEngine()
    with pytest.raises(ValueError):
        engine.program_key(0, b"k" * 32, from_ems=True)


def test_slot_exhaustion():
    engine = MemoryEncryptionEngine(key_slots=2)
    engine.program_key(1, b"a" * 32, from_ems=True)
    engine.program_key(2, b"b" * 32, from_ems=True)
    with pytest.raises(KeySlotExhausted):
        engine.program_key(3, b"c" * 32, from_ems=True)
    engine.release_key(1, from_ems=True)
    engine.program_key(3, b"c" * 32, from_ems=True)  # now fits
    assert engine.slots_in_use() == 2


def test_reprogramming_same_keyid_is_not_a_new_slot():
    engine = MemoryEncryptionEngine(key_slots=1)
    engine.program_key(1, b"a" * 32, from_ems=True)
    engine.program_key(1, b"b" * 32, from_ems=True)
    assert engine.slots_in_use() == 1


def test_physical_tamper_detected(memory: PhysicalMemory):
    """Cold-boot style raw modification trips the MAC on the next read."""
    engine = memory.encryption_engine
    engine.program_key(5, b"k" * 32, from_ems=True)
    memory.write(0x2000, b"A" * 64, keyid=5)
    raw = bytearray(memory.read_raw(0x2000, 64))
    raw[0] ^= 0xFF
    memory.write_raw(0x2000, bytes(raw))
    with pytest.raises(IntegrityViolation):
        memory.read(0x2000, 64, keyid=5)


def test_host_data_not_integrity_checked(memory: PhysicalMemory):
    memory.write(0x2000, b"host data here!!", keyid=0)
    raw = bytearray(memory.read_raw(0x2000, 16))
    raw[3] ^= 0xFF
    memory.write_raw(0x2000, bytes(raw))
    memory.read(0x2000, 16, keyid=0)  # no exception: host path unchecked


def test_integrity_can_be_disabled():
    mem = PhysicalMemory(1024 * 1024)
    mem.encryption_engine = MemoryEncryptionEngine(integrity_enabled=False)
    mem.encryption_engine.program_key(5, b"k" * 32, from_ems=True)
    mem.write(0x1000, b"B" * 64, keyid=5)
    raw = bytearray(mem.read_raw(0x1000, 64))
    raw[0] ^= 0xFF
    mem.write_raw(0x1000, bytes(raw))
    mem.read(0x1000, 64, keyid=5)  # garbage, but no violation raised


def test_host_overwrite_drops_stale_enclave_macs(memory: PhysicalMemory):
    """A frame returned to the host must not trip old MACs for the host."""
    engine = memory.encryption_engine
    engine.program_key(5, b"k" * 32, from_ems=True)
    memory.write(0x3000, b"C" * 64, keyid=5)
    memory.write(0x3000, b"host takes over." * 4, keyid=0)
    assert memory.read(0x3000, 64, keyid=0) == b"host takes over." * 4


def test_zero_frame_drops_macs(memory: PhysicalMemory):
    engine = memory.encryption_engine
    engine.program_key(6, b"k" * 32, from_ems=True)
    memory.write(4 * PAGE_SIZE, b"D" * 64, keyid=6)
    memory.zero_frame(4)
    # Freshly zeroed frame readable under the key without a violation.
    memory.read(4 * PAGE_SIZE, 64, keyid=6)


def test_unprogrammed_keyid_decrypts_to_garbage(memory: PhysicalMemory):
    memory.write(0x6000, b"plaintext-bytes!", keyid=0)
    out = memory.read(0x6000, 16, keyid=777)  # never programmed
    assert out != b"plaintext-bytes!"



@given(offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1),
       length=st.integers(min_value=65, max_value=PAGE_SIZE + 200),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_tamper_anywhere_in_span_names_its_line(offset: int, length: int,
                                                data):
    """A multi-line (possibly cross-page) span is verified line by line.

    Flipping any one stored byte of the line-aligned span trips the MAC
    of exactly the line holding it; with two flips the lower line is
    named, as the engine checks lines in address order.
    """
    memory = PhysicalMemory(4 * PAGE_SIZE)
    memory.encryption_engine = MemoryEncryptionEngine()
    memory.encryption_engine.program_key(7, b"t" * 32, from_ems=True)
    paddr = PAGE_SIZE + offset
    memory.write(paddr, bytes(i & 0xFF for i in range(length)), keyid=7)
    memory.read(paddr, length, keyid=7)  # untampered: passes
    base = paddr - paddr % CACHE_LINE_SIZE
    end = -(-(paddr + length) // CACHE_LINE_SIZE) * CACHE_LINE_SIZE
    flips = data.draw(st.lists(st.integers(min_value=base, max_value=end - 1),
                               min_size=1, max_size=2, unique=True),
                      label="flips")
    for at in flips:
        memory.write_raw(at, bytes([memory.read_raw(at, 1)[0] ^ 0x01]))
    named = min(flips) - min(flips) % CACHE_LINE_SIZE
    with pytest.raises(IntegrityViolation, match=f"line {named:#x} "):
        memory.read(paddr, length, keyid=7)
