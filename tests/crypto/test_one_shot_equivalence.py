"""The prepared-state crypto primitives equal their one-shot definitions.

``keyed_mac`` copies a per-key prepared HMAC state and ``KeystreamCipher``
copies a per-key SHA3 prefix state and XORs as integers. Both are pure
speedups: every output bit must equal the plain formulas below (one-shot
``hmac.new``, one ``sha3_256(key + index)`` per 32-byte block, per-byte
XOR), pinned here by known-answer vectors and by hypothesis laws.
"""

from __future__ import annotations

import hashlib
import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.constants import MAC_BITS, PAGE_SIZE
from repro.crypto import hashes
from repro.crypto.cipher import KeystreamCipher
from repro.crypto.hashes import keyed_mac, truncated_mac

KAT_KEY = bytes(range(32))


def one_shot_mac(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha3_256).digest()


def one_shot_truncated(key: bytes, data: bytes, bits: int = MAC_BITS) -> int:
    value = int.from_bytes(one_shot_mac(key, data)[:8], "little")
    return value & ((1 << bits) - 1)


def one_shot_keystream(key: bytes, start: int, length: int) -> bytes:
    first_block = start // 32
    last_block = (start + length - 1) // 32
    out = bytearray()
    for block_index in range(first_block, last_block + 1):
        out.extend(hashlib.sha3_256(
            key + block_index.to_bytes(8, "little")).digest())
    offset = start - first_block * 32
    return bytes(out[offset:offset + length])


def one_shot_encrypt(key: bytes, plaintext: bytes, tweak: int) -> bytes:
    stream = one_shot_keystream(key, tweak, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


# -- known answers (computed from the one-shot formulas) ---------------------


def test_keyed_mac_known_answers():
    assert keyed_mac(b"hypertee-mac-key", b"line").hex() == (
        "b00b4c994ff7eb503e87c121095d74bf8da56449bb4bfc13e5ceeb3ff069e94f")
    assert keyed_mac(b"k" * 32, b"").hex() == (
        "3d1bd8fe0a13959de599ffde8dae3ab65d3f53de2b43380c1afa2e411d513959")


def test_truncated_mac_known_answers():
    assert truncated_mac(b"k" * 32, bytes(64)) == 0x59B10AB
    assert truncated_mac(b"k" * 32, b"A" * 64, bits=8) == 0xB4


def test_keystream_known_answers():
    cipher = KeystreamCipher(KAT_KEY)
    assert cipher.keystream(0, 32).hex() == (
        "e95000ce8abd3e3f2101cdee5c97c069a9342c2e2c5d4bd19b6106fc5243334a")
    # Straddles the block boundary at 32.
    assert cipher.keystream(30, 5).hex() == "334a8dc3d4"


def test_encrypt_known_answers():
    cipher = KeystreamCipher(KAT_KEY)
    # Straddles the page boundary at 4096.
    assert cipher.encrypt(b"hypertee", tweak=4093).hex() == "48a5bb6f07128ae0"
    assert cipher.encrypt(b"", tweak=7) == b""
    ciphertext = cipher.encrypt(bytes(range(256)) * 20, tweak=4000)
    assert hashlib.sha3_256(ciphertext).hexdigest() == (
        "d003034962e89866066d7facb51110f55c0668c8ffbbfbbf08ce903fb0d4dba8")


# -- laws: prepared state == one-shot formula ----------------------------------

keys = st.binary(min_size=16, max_size=64)
edge_lengths = st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65,
                                PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 33])
lengths = st.one_of(edge_lengths, st.integers(min_value=0, max_value=2 * PAGE_SIZE))
tweaks = st.one_of(st.integers(min_value=0, max_value=2**40),
                   st.sampled_from([0, 5, 31, PAGE_SIZE - 5, 3 * PAGE_SIZE - 1]))


@given(key=st.binary(max_size=200), data=st.binary(max_size=300),
       bits=st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_mac_equals_one_shot_hmac(key: bytes, data: bytes, bits: int):
    assert keyed_mac(key, data) == one_shot_mac(key, data)
    assert truncated_mac(key, data, bits) == one_shot_truncated(key, data, bits)


@given(key=keys, start=tweaks, length=lengths)
@settings(max_examples=80, deadline=None)
def test_keystream_equals_one_shot(key: bytes, start: int, length: int):
    assert KeystreamCipher(key).keystream(start, length) == \
        one_shot_keystream(key, start, length)


@given(key=keys, tweak=tweaks, length=lengths, seed=st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_encrypt_equals_per_byte_xor(key: bytes, tweak: int, length: int,
                                     seed: int):
    plaintext = bytes((seed + 7 * i) & 0xFF for i in range(length))
    cipher = KeystreamCipher(key)
    ciphertext = cipher.encrypt(plaintext, tweak)
    assert ciphertext == one_shot_encrypt(key, plaintext, tweak)
    assert len(ciphertext) == length
    assert cipher.decrypt(ciphertext, tweak) == plaintext


def test_prepared_state_is_not_mutated_by_use():
    """Copies are updated, never the prepared state: order does not matter."""
    cipher = KeystreamCipher(KAT_KEY)
    late = cipher.keystream(4096, 64)
    early = cipher.keystream(0, 64)
    assert early == one_shot_keystream(KAT_KEY, 0, 64)
    assert late == one_shot_keystream(KAT_KEY, 4096, 64)
    first = keyed_mac(b"k" * 32, b"a")
    assert first == keyed_mac(b"k" * 32, b"a") == one_shot_mac(b"k" * 32, b"a")


def test_more_keys_than_the_cache_holds_stay_correct():
    """Evicted keys are re-prepared: correctness never depends on the cache."""
    maxsize = hashes._hmac_state.cache_info().maxsize
    assert maxsize is not None
    many = [i.to_bytes(4, "little") * 8 for i in range(maxsize + 40)]
    for key in many + many[:40]:
        assert keyed_mac(key, b"line") == one_shot_mac(key, b"line")
    assert hashes._hmac_state.cache_info().currsize <= maxsize
