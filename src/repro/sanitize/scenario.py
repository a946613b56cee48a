"""Sanitized driver scenarios for the CLI check and the DET lockstep.

One deterministic quickstart-style lifecycle (the same shape the
observability CLI drives) plus a sharded variant that exercises the
cross-shard transfer protocol — both with sanitizers attached *before*
any workload runs, so every mint/claim/wire event is observed.
"""

from __future__ import annotations


def run_sanitized_scenario(seed: int = 0x1EE7,
                           sanitizers: tuple[str, ...] = ("secret", "own")):
    """One full lifecycle under sanitizers; returns the manager.

    Launch, memory traffic (including a demand fault), shared memory,
    attestation, sealing via the EMS service, EFREE, an OS-driven EWB
    round, and destroy — the surfaces every SECRET check watches.
    """
    from repro.common.types import Permission, Primitive
    from repro.core.api import HyperTEE
    from repro.core.config import SystemConfig
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE(SystemConfig(seed=seed))
    tee.system.enable_observability()
    manager = tee.system.enable_sanitizers(sanitizers).san

    enclave = tee.launch_enclave(b"teesan scenario enclave " * 32,
                                 EnclaveConfig(name="teesan-scenario",
                                               heap_pages_max=64))
    with enclave.running():
        vaddr = enclave.ealloc(4)
        enclave.write(vaddr, b"sanitized payload")
        assert enclave.read(vaddr, 17) == b"sanitized payload"
        enclave.write(vaddr + 5 * 4096, b"demand page")
        region = enclave.create_shared_region(2, Permission.RW)
        share_va = enclave.attach(region)
        enclave.write(share_va, b"shared bytes")
        enclave.detach(region)
        enclave.destroy_region(region)
        enclave.attest(report_data=b"teesan")
        enclave.efree(vaddr)
    tee.invoke_os(Primitive.EWB, {"pages": 2})
    enclave.destroy()
    return manager


def run_sanitized_shard_scenario(
        seed: int = 0x1EE7, shards: int = 2,
        sanitizers: tuple[str, ...] = ("secret", "own")):
    """Lifecycles across a shard fleet plus one cross-shard transfer.

    Exercises the sealed prepare/commit protocol under the OWN
    sanitizer's phase tracking; returns the manager.
    """
    from repro.core.api import HyperTEE
    from repro.core.config import SystemConfig
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE(SystemConfig(seed=seed, ems_shards=shards))
    tee.system.enable_observability()
    manager = tee.system.enable_sanitizers(sanitizers).san

    handles = [
        tee.launch_enclave(f"teesan shard enclave {i} ".encode() * 16,
                           EnclaveConfig(name=f"teesan-shard{i}",
                                         heap_pages_max=16))
        for i in range(3)
    ]
    for i, enclave in enumerate(handles):
        with enclave.running():
            vaddr = enclave.ealloc(2)
            enclave.write(vaddr, f"shard payload {i}".encode())
            enclave.efree(vaddr)
    pool = tee.system.shard_pool
    moved = handles[0]
    src = pool.resolve(moved.enclave_id)
    dst = (src + 1) % pool.num_shards
    pool.transfer_enclave(moved.enclave_id, dst)
    with moved.running():
        vaddr = moved.ealloc(1)
        moved.write(vaddr, b"post-transfer payload")
        moved.efree(vaddr)
    for enclave in handles:
        enclave.destroy()
    return manager
