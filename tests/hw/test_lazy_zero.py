"""Deferred zero-under-key is indistinguishable from the eager write.

``PhysicalMemory.zero_under`` records "this frame holds Enc_K(0)" and
stores each line only when an access could tell. The eager program
writes a zero page through the engine instead. Both memories replay the
same seeded op sequence; every return value, exception, final raw byte
and final MAC entry must agree.
"""

from __future__ import annotations

import random

import pytest

from repro.common.constants import CACHE_LINE_SIZE, HOST_KEYID, PAGE_SIZE
from repro.hw.encryption_engine import MemoryEncryptionEngine
from repro.hw.memory import PhysicalMemory

FRAMES = 16
SIZE = FRAMES * PAGE_SIZE
#: KeyIDs 1 and 2 get programmed; 3 never is.
KEYIDS = (HOST_KEYID, 1, 2, 3)
KEYS = (b"a" * 32, b"b" * 32, b"c" * 32)


class EagerMemory(PhysicalMemory):
    """The eager program: zero_under writes a zero page through the engine."""

    def zero_under(self, frame_number: int, keyid: int) -> None:
        self.write_frame(frame_number, bytes(PAGE_SIZE), keyid)


def _platform(cls, integrity: bool = True) -> PhysicalMemory:
    memory = cls(SIZE)
    memory.encryption_engine = MemoryEncryptionEngine(
        integrity_enabled=integrity)
    for keyid, key in ((1, KEYS[0]), (2, KEYS[1])):
        memory.encryption_engine.program_key(keyid, key, from_ems=True)
    return memory


def _length(rng: random.Random) -> int:
    return rng.choice((0, 1, 8, CACHE_LINE_SIZE - 1, CACHE_LINE_SIZE,
                       CACHE_LINE_SIZE + 1, 2 * CACHE_LINE_SIZE,
                       PAGE_SIZE, rng.randint(1, 2 * PAGE_SIZE)))


def _addr(rng: random.Random) -> int:
    frame = rng.randrange(FRAMES)
    return (frame * PAGE_SIZE
            + rng.choice((0, CACHE_LINE_SIZE, rng.randrange(PAGE_SIZE),
                          PAGE_SIZE - 1, PAGE_SIZE - CACHE_LINE_SIZE)))


def _ops(seed: int, count: int = 80):
    """A seeded op sequence; every op is a (method, args) pair."""
    rng = random.Random(seed)
    # Start from non-zero raw bytes so stale content cannot pass as Enc(0).
    ops = [("write_raw", (0, rng.randbytes(SIZE)))]
    for _ in range(count):
        kind = rng.choices(
            ("zero_under", "read", "write", "read_raw", "write_raw",
             "zero_frame", "release", "program"),
            weights=(6, 8, 6, 2, 2, 1, 1, 1))[0]
        keyid = rng.choice(KEYIDS)
        if kind == "zero_under":
            ops.append(("zero_under", (rng.randrange(FRAMES), keyid)))
        elif kind == "read":
            ops.append(("read", (_addr(rng), _length(rng), keyid)))
        elif kind == "write":
            ops.append(("write", (_addr(rng), rng.randbytes(_length(rng)),
                                  keyid)))
        elif kind == "read_raw":
            ops.append(("read_raw", (_addr(rng), rng.randint(0, 2 * PAGE_SIZE))))
        elif kind == "write_raw":
            ops.append(("write_raw", (_addr(rng), rng.randbytes(rng.randint(1, 4)))))
        elif kind == "zero_frame":
            ops.append(("zero_frame", (rng.randrange(FRAMES),)))
        elif kind == "release":
            ops.append(("release", (rng.choice((1, 2)),)))
        else:
            ops.append(("program", (rng.choice((1, 2)), rng.choice(KEYS))))
    return ops


def _apply(memory: PhysicalMemory, op) -> tuple:
    name, args = op
    engine = memory.encryption_engine
    try:
        if name == "release":
            result = engine.release_key(*args, from_ems=True)
        elif name == "program":
            result = engine.program_key(*args, from_ems=True)
        else:
            result = getattr(memory, name)(*args)
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return "ok", result


def _final_state(memory: PhysicalMemory) -> tuple:
    raw = memory.read_raw(0, SIZE)  # materializes every pending line
    return raw, dict(memory.encryption_engine._macs)


def _replay(ops, integrity: bool = True):
    lazy, eager = _platform(PhysicalMemory, integrity), _platform(EagerMemory, integrity)
    for index, op in enumerate(ops):
        assert _apply(lazy, op) == _apply(eager, op), (index, op[0])
    assert _final_state(lazy) == _final_state(eager)
    return lazy


@pytest.mark.parametrize("seed", range(120))
def test_lazy_matches_eager(seed):
    _replay(_ops(seed))


@pytest.mark.parametrize("seed", range(10))
def test_lazy_matches_eager_without_integrity(seed):
    _replay(_ops(1000 + seed), integrity=False)


def test_past_the_end_access_leaves_pending_lines_intact():
    ops = [("zero_under", (FRAMES - 1, 1)),
           ("write", (SIZE - 64, b"x" * 128, 1)),
           ("read", (SIZE - 64, 128, 1)),
           ("read", (SIZE - 64, 64, 1))]
    _replay(ops)


def test_zero_read_needs_no_crypto():
    memory = _platform(PhysicalMemory)
    memory.zero_under(3, 1)
    memory.write(3 * PAGE_SIZE + 100, b"hello", 1)
    assert memory.read(3 * PAGE_SIZE + 128, 256, 1) == bytes(256)
    assert memory.read(3 * PAGE_SIZE + 96, 16, 1) == bytes(4) + b"hello" + bytes(7)
    # Only the line the write partly covered was stored.
    assert memory._pending[3].pending == ((1 << 64) - 1) & ~(1 << 1)


def test_pending_map_is_bounded_by_frames():
    memory = _platform(PhysicalMemory)
    for _ in range(5):
        for frame in range(FRAMES):
            memory.zero_under(frame, 1)
    assert len(memory._pending) == FRAMES
    memory.read_raw(0, SIZE)
    assert not memory._pending


def test_host_and_unprogrammed_keyids_zero_eagerly():
    memory = _platform(PhysicalMemory)
    memory.zero_under(0, HOST_KEYID)
    memory.zero_under(1, 3)
    assert not memory._pending
