"""The SECRET scan's work does not grow with the number of secrets minted.

Every platform lifecycle mints fresh key material, so a sanitized run's
registry only grows. The scan must cost the same however long the run
has been going: ``SanitizeStats.scan_words`` (aligned buffer words
looked up) and ``scan_confirms`` (candidate secrets confirmed with
``find``) depend on the scanned buffers alone. These tests pin that with
the counters, never with host time:

* the same buffers scanned against 10 and against 2,000 registered
  secrets give identical probe counts and identical hits;
* a sanitized lifecycle loop on 4 EMS shards, obs off and on, spends
  exactly the same probes per lifecycle in its last chunk as in its
  first; the ``slow`` sweep runs it deeper.

Retained memory per lifecycle is not gated here: it still grows with
the EMS's destroyed control blocks (ROADMAP item 2).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.sanitize.shadow import TaintRegistry

#: The scan-side counters of ``SanitizeStats`` compared chunk by chunk.
_PROBES = ("scan_words", "scan_confirms", "wire_packets_scanned",
           "raw_writes_scanned", "frames_scanned", "observable_scans")


def _buffers(rng: random.Random, planted: list[bytes]):
    """Pages, packets and hex text; some carry a planted secret."""
    raw, text = [], []
    for i in range(60):
        data = bytearray(rng.randbytes(rng.choice((40, 333, 4096))))
        if i % 3 == 0:
            secret = planted[i % len(planted)]
            at = rng.randrange(len(data) - len(secret))
            data[at:at + len(secret)] = secret
        raw.append(bytes(data))
    raw.append(bytes(4096))
    for i in range(20):
        body = rng.randbytes(48).hex()
        if i % 2 == 0:
            body += planted[i % len(planted)].hex()
        text.append(f"payload-{i} {body} é")
    return raw, text


def _scan_all(registry: TaintRegistry, raw, text):
    hits = [registry.scan(data) for data in raw]
    hits += [registry.scan_text(payload) for payload in text]
    return hits, dataclasses.astuple(registry.stats)


def test_probe_counts_do_not_depend_on_registry_size():
    rng = random.Random(0x5CA1E)
    secrets = [rng.randbytes(32) for _ in range(2000)]
    raw, text = _buffers(rng, secrets[:10])

    small, large = TaintRegistry(), TaintRegistry()
    for i, secret in enumerate(secrets):
        if i < 10:
            assert small.register(secret, f"key{i}")
        assert large.register(secret, f"key{i}")
    assert len(large) == 2000

    small_hits, small_probes = _scan_all(small, raw, text)
    large_hits, large_probes = _scan_all(large, raw, text)
    assert large_hits == small_hits
    assert large_probes == small_probes
    # The scan ran and found the planted secrets.
    assert sum(map(len, small_hits)) == 20 + 10
    words, confirms = small_probes
    assert words >= sum(len(data) // 8 for data in raw)
    assert confirms >= 30


def _lifecycle_probes(obs: bool, lifecycles: int, chunk: int):
    """Scan-counter deltas per ``chunk`` lifecycles of a sanitized fleet."""
    tee = HyperTEE(SystemConfig(seed=0x5CA7, ems_shards=4))
    if obs:
        tee.system.enable_observability()
    tee.system.enable_sanitizers(("secret", "own"))
    manager = tee.system.san
    payload = bytes(range(256)) * 2

    def probes():
        stats = dataclasses.asdict(manager.stats)
        return {name: stats[name] for name in _PROBES}

    deltas, before = [], probes()
    for done in range(1, lifecycles + 1):
        enclave = tee.launch_enclave(b"lifecycle" * 50)
        with enclave.running():
            vaddr = enclave.ealloc(4)
            enclave.write(vaddr, payload)
            assert enclave.read(vaddr, len(payload)) == payload
            enclave.attest(report_data=b"history")
        enclave.destroy()
        if done % chunk == 0:
            after = probes()
            deltas.append({name: after[name] - before[name]
                           for name in _PROBES})
            before = after
    manager.check_clean("scan history loop")
    return deltas, len(manager.registry)


def _assert_flat(obs: bool, lifecycles: int, chunk: int) -> None:
    deltas, registered = _lifecycle_probes(obs, lifecycles, chunk)
    assert registered >= lifecycles, "each lifecycle mints key material"
    assert deltas[0]["scan_words"] > 0
    assert deltas[-1] == deltas[0], (
        f"scan probes per {chunk} lifecycles grew with history: "
        f"first {deltas[0]}, last {deltas[-1]}")


@pytest.mark.parametrize("obs", (False, True), ids=("obs-off", "obs-on"))
def test_probes_per_lifecycle_stay_flat(obs: bool):
    _assert_flat(obs, lifecycles=40, chunk=10)


@pytest.mark.slow
@pytest.mark.parametrize("obs", (False, True), ids=("obs-off", "obs-on"))
def test_probes_per_lifecycle_stay_flat_deep(obs: bool):
    _assert_flat(obs, lifecycles=500, chunk=100)
