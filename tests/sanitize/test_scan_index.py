"""Differential tests: the aligned-word secret index against brute force.

``TaintRegistry.scan`` and ``scan_text`` look a buffer's 8-aligned
words up in an index of each secret's eight shifted words and run
``find`` only for the secrets that index names. The reference below is
the plain definition the index replaced: one ``find`` loop per
registered secret, hits sorted by offset with ties in registration
order. Every test here compares the two exactly, label, offset and
length, in order.

The targeted cases cover what the soundness argument leans on: a
secret at each alignment 0-7, a secret ending at the very end of a
buffer whose length is not a multiple of 8 (its only covered aligned
word is the buffer's last one), periodic secrets that overlap
themselves, and secrets that share 8-byte words.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize.manager import SanitizerManager
from repro.sanitize.shadow import MIN_SECRET_BYTES, TaintHit, TaintRegistry


class _Case:
    """A registry plus the plain list of what it accepted, in order."""

    def __init__(self, values=(), registry=None) -> None:
        self.registry = registry if registry is not None else TaintRegistry()
        self.entries: list[tuple[bytes, str]] = []
        for i, value in enumerate(values):
            self.add(value, f"k{i}")

    def add(self, value: bytes, label: str) -> None:
        if self.registry.register(value, label):
            self.entries.append((value, label))

    def reference(self, data, *, text: bool = False) -> list[TaintHit]:
        """Brute force: every occurrence of every secret, one find each."""
        hits = []
        for value, label in self.entries:
            needle = value.hex() if text else value
            start = data.find(needle)
            while start != -1:
                hits.append(TaintHit(label, start, len(needle)))
                start = data.find(needle, start + 1)
        hits.sort(key=lambda hit: hit.offset)
        return hits

    def check(self, data: bytes) -> list[TaintHit]:
        """``scan`` matches the reference for every buffer flavour."""
        expected = self.reference(data)
        assert self.registry.scan(data) == expected
        assert self.registry.scan(bytearray(data)) == expected
        assert self.registry.scan(memoryview(data)) == expected
        return expected

    def check_text(self, text: str) -> list[TaintHit]:
        """``scan_text`` matches the reference."""
        expected = self.reference(text, text=True)
        assert self.registry.scan_text(text) == expected
        return expected


# -- targeted cases ----------------------------------------------------------

SECRET = bytes(range(0x40, 0x40 + 16))


@pytest.mark.parametrize("length", (16, 17, 23, 24, 31, 32, 33))
@pytest.mark.parametrize("offset", range(8))
def test_every_alignment_and_a_ragged_tail(offset, length):
    """A secret at offset 0-7, and ending flush with a ragged buffer."""
    secret = bytes(range(0x80, 0x80 + length))
    case = _Case([secret])
    data = b"\x00" * offset + secret + b"\x11" * 9
    assert case.check(data) == [TaintHit("k0", offset, length)]
    # Flush with the end: the last aligned word is the only one covered.
    for pad in range(8):
        tail = b"\x22" * (40 + pad) + secret
        assert len(case.check(tail)) == 1
        text = "z" * (40 + pad) + secret.hex()
        assert len(case.check_text(text)) == 1


def test_a_sixteen_byte_secret_flush_with_a_ragged_end():
    case = _Case([SECRET])
    for length in range(16, 64):
        if length % 8 == 0:
            continue
        data = bytes(length - 16) + SECRET
        assert case.check(data) == [
            TaintHit("k0", length - 16, 16)]


def test_periodic_secrets_overlap_themselves():
    periodic = b"abcd" * 9
    case = _Case([periodic, b"abcd" * 5])
    data = b"xyz" + b"abcd" * 14 + b"ab"
    hits = case.check(data)
    assert [hit.offset for hit in hits if hit.label == "k0"] == \
        list(range(3, 3 + 4 * 6, 4))
    # Same offset: registration order breaks the tie.
    assert [hit.label for hit in hits[:2]] == ["k0", "k1"]


def test_secrets_sharing_words_are_confirmed_separately():
    prefix = bytes(range(100, 124))
    first = prefix + b"FIRST-SUFFIX"
    second = prefix + b"OTHER-SUFFIX"
    shifted = prefix[3:] + b"FIRST-SUF"
    case = _Case([first, second, shifted])
    assert case.check(b"..." + first + b"...") == [
        TaintHit("k0", 3, len(first)),
        TaintHit("k2", 6, len(shifted)),
    ]
    # A shared word alone is a candidate, never a hit.
    assert case.check(b"?" * 5 + prefix + b"!" * 11) == []
    both = second + first
    assert {hit.label for hit in case.check(both)} == \
        {"k0", "k1", "k2"}


def test_short_and_empty_buffers():
    case = _Case([SECRET])
    for data in (b"", b"\x01", SECRET[:-1], SECRET[1:]):
        assert case.check(data) == []
    assert case.check_text("") == []
    assert case.check_text(SECRET.hex()[:-1]) == []


def test_an_empty_registry_finds_nothing():
    assert TaintRegistry().scan(SECRET) == []
    assert TaintRegistry().scan_text(SECRET.hex()) == []


def test_scan_text_offsets_survive_non_ascii():
    case = _Case([SECRET, bytes(range(200, 232))])
    text = ("é€" * 5 + SECRET.hex() + "\U0001f511" + SECRET.hex()
            + "ü" + bytes(range(200, 232)).hex() + "ß")
    hits = case.check_text(text)
    assert [hit.label for hit in hits] == ["k0", "k0", "k1"]
    for hit in hits:
        assert text[hit.offset:hit.offset + hit.length] in (
            SECRET.hex(), bytes(range(200, 232)).hex())


def test_scan_leaf_str_path_matches_the_reference():
    """The SECRET sanitizer's str leaves: latin-1 bytes plus hex text."""
    manager = SanitizerManager(("secret",))
    case = _Case(registry=manager.registry)
    for value, label in ((SECRET, "raw"), (bytes(range(0xA0, 0xC0)), "latin")):
        manager.register_secret(value, label)
        case.entries.append((value, manager.registry.labels()[-1]))
    leaf = ("☃ pre " + SECRET.decode("latin-1") + " é "
            + bytes(range(0xA0, 0xC0)).decode("latin-1") + " € "
            + SECRET.hex() + " \U0001f511")
    expected = (case.reference(leaf.encode("latin-1", "ignore"))
                + case.reference(leaf, text=True))
    hits = manager.secret._scan_leaf(leaf)
    assert hits == expected
    assert len(hits) == 3


# -- randomized differential -------------------------------------------------

def _periodic(draw_bytes: bytes, period: int, length: int) -> bytes:
    unit = draw_bytes[:period]
    return (unit * (length // len(unit) + 1))[:length]


@st.composite
def registries_and_buffers(draw):
    """Secrets with shared prefixes and periods, buffers that embed them."""
    alphabet = draw(st.sampled_from((b"abcdef", bytes(range(256)))))
    byte = st.sampled_from(alphabet)
    raw = st.lists(byte, min_size=MIN_SECRET_BYTES, max_size=40).map(bytes)
    values = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("plain", "periodic", "shared")))
        value = draw(raw)
        if kind == "periodic":
            value = _periodic(value, draw(st.integers(4, 9)), len(value))
        elif kind == "shared" and values:
            base = draw(st.sampled_from(values))
            cut = draw(st.integers(0, len(base)))
            value = base[cut:] + value
        values.append(value)
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        pieces.append(draw(st.lists(byte, max_size=12).map(bytes)))
        if values and draw(st.booleans()):
            value = draw(st.sampled_from(values))
            lo = draw(st.integers(0, 3))
            hi = draw(st.integers(0, 3))
            pieces.append(value[lo:len(value) - hi])
    return values, b"".join(pieces)


@settings(max_examples=150, deadline=None)
@given(drawn=registries_and_buffers())
def test_scan_matches_brute_force(drawn):
    values, data = drawn
    case = _Case(values)
    case.check(data)
    case.check_text("#" + data.hex() + "é")


def test_seeded_registries_match_brute_force():
    """Many small registries over one fixed seed (no shrinking needed)."""
    rng = random.Random(0x5ECE7)
    for _ in range(300):
        alphabet = rng.choice((b"ab", b"abcde", bytes(range(256))))
        values = []
        for _ in range(rng.randint(1, 5)):
            length = rng.randint(16, 36)
            if values and rng.random() < 0.3:
                base = rng.choice(values)
                value = base[rng.randint(0, 8):] + bytes(
                    rng.choices(alphabet, k=length))
            elif rng.random() < 0.3:
                unit = rng.randbytes(rng.randint(4, 8))
                value = (unit * 10)[:length]
            else:
                value = bytes(rng.choices(alphabet, k=length))
            values.append(value)
        case = _Case(values)
        data = bytearray(rng.choices(alphabet, k=rng.randint(0, 120)))
        for value, _ in case.entries:
            if rng.random() < 0.7:
                at = rng.randint(0, len(data))
                data[at:at] = value
        case.check(bytes(data))
        case.check_text("-" + bytes(data).hex())
