"""Chaos on the sharded fleet: outages, interrupted transfers, weather.

The single-EMS chaos suite proves the gate's hardening; this file
re-proves it when the EMS is a 4-shard fleet, plus the two shard-only
fault points:

* ``ems.shard.fail`` — one shard freezes for a few pump rounds while
  its siblings keep serving; the retry machinery rides out the outage
  and every invocation still terminates.
* ``ems.transfer.interrupt`` — a cross-shard migration dies between
  prepare and commit; nothing may double-apply and the fleet's frame
  accounting must balance to the page.

Marked ``chaos``; ids carry the suite-wide ``engine`` fixture.
"""

from __future__ import annotations

import pytest

from repro.attacks.harness import evaluate_tee, expected_paper_matrix
from repro.common.types import AttackOutcome
from repro.errors import TransferInterrupted
from repro.faults import FaultPlan, FaultRule
from tests.faults.chaoslib import (
    chaos_seed_count,
    chaos_tee,
    check_invariants,
    flight_guard,
    kitchen_sink_plan,
    run_lifecycle,
    transport_chaos_plan,
)

pytestmark = pytest.mark.chaos

SHARDS = 4


def _shard_outage_plan(seed: int) -> FaultPlan:
    """Transport weather plus intermittent shard freezes."""
    base = transport_chaos_plan(seed, drop=0.08, corrupt=0.04,
                                duplicate=0.04)
    return FaultPlan(seed=seed, rules=base.rules + (
        FaultRule("ems.shard.fail", probability=0.05, magnitude=3),
    ))


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_shard_outages_terminate(seed: int, engine: str):
    """Shard freezes under degraded transport: no hangs, no corruption."""
    tee = chaos_tee(_shard_outage_plan(seed), ems_shards=SHARDS)
    with flight_guard(tee, label="shard-outage"):
        readbacks = run_lifecycle(tee, enclaves=8)
        assert readbacks == [f"secret-of-{i}".encode() for i in range(8)]
        check_invariants(tee.system)
    assert tee.system.faults.stats.total_fired > 0


@pytest.mark.parametrize("seed", range(chaos_seed_count()))
def test_kitchen_sink_on_fleet(seed: int, engine: str):
    """Every fault point at once on 4 shards, still a working platform."""
    plan = kitchen_sink_plan(seed)
    plan = FaultPlan(seed=seed, rules=plan.rules + (
        FaultRule("ems.shard.fail", probability=0.03, magnitude=2),
    ))
    tee = chaos_tee(plan, ems_shards=SHARDS)
    with flight_guard(tee, label="fleet-kitchen-sink"):
        readbacks = run_lifecycle(tee, enclaves=6)
        assert readbacks == [f"secret-of-{i}".encode() for i in range(6)]
        check_invariants(tee.system)


def test_interrupted_transfers_never_double_apply(engine: str):
    """A storm of interrupted migrations leaves accounting exact.

    Every odd attempt is interrupted (probability 1.0, then the retry
    consumes the next fire opportunity's outcome); after the storm each
    enclave is resident on exactly one shard, its frame set is intact,
    and fleet-wide pool usage equals the sum of what the enclaves own.
    """
    from repro.core.enclave import EnclaveConfig
    from repro.ems.ownership import Owner

    tee = chaos_tee(
        FaultPlan(seed=0xC0, rules=(
            FaultRule("ems.transfer.interrupt", probability=0.5),)),
        ems_shards=SHARDS)
    pool = tee.system.shard_pool
    enclaves = [
        tee.launch_enclave(f"xfer-{i}".encode() * 16,
                           EnclaveConfig(name=f"xfer{i}",
                                         heap_pages_max=8))
        for i in range(4)
    ]
    frames = {
        e.enclave_id: set(
            pool.shard_of(e.enclave_id).ownership.frames_owned_by(
                Owner.enclave(e.enclave_id)))
        for e in enclaves
    }
    usage_before = sum(s.pool.used_count for s in pool.shards)

    attempts = interrupted = 0
    with flight_guard(tee, label="transfer-interrupt"):
        for round_index in range(6):
            for enclave in enclaves:
                src = pool.resolve(enclave.enclave_id)
                dst = (src + 1 + round_index) % SHARDS
                if dst == src:
                    continue
                attempts += 1
                try:
                    pool.transfer_enclave(enclave.enclave_id, dst)
                except TransferInterrupted:
                    interrupted += 1
                check_invariants(tee.system)

    assert interrupted > 0, "a 50% interrupt plan that never fired"
    assert pool.transfers_interrupted == interrupted
    assert pool.transfers_committed == attempts - interrupted
    # No double-apply anywhere: each enclave's frame set is exactly its
    # launch-time set, wherever it now lives, and usage is conserved.
    for enclave in enclaves:
        shard = pool.shard_of(enclave.enclave_id)
        assert set(shard.ownership.frames_owned_by(
            Owner.enclave(enclave.enclave_id))) == frames[enclave.enclave_id]
    assert sum(s.pool.used_count for s in pool.shards) == usage_before

    # The fleet still serves: full post-storm lifecycle on each enclave.
    for i, enclave in enumerate(enclaves):
        with enclave.running():
            vaddr = enclave.ealloc(1)
            enclave.write(vaddr, f"alive{i}".encode())
            assert enclave.read(vaddr, 6) == f"alive{i}".encode()
        enclave.destroy()
    check_invariants(tee.system)


def test_table6_unchanged_with_idle_shard_points(engine: str):
    """The defense matrix ignores shard weather that never engages.

    The plan carries both shard fault points, but the attack harness
    performs no transfers and the shard-fail rule is given zero
    probability mass after boot — Table VI must come out exactly the
    paper's all-defended column.
    """
    from repro.baselines.hypertee_adapter import HyperTEEAdapter

    def sharded_hypertee():
        return HyperTEEAdapter(tee=chaos_tee(
            FaultPlan(seed=3, rules=(
                FaultRule("ems.shard.fail", probability=0.0),
                FaultRule("ems.transfer.interrupt", probability=1.0),
            )),
            observability=False, ems_shards=SHARDS))

    outcomes = {channel: result.outcome
                for channel, result in evaluate_tee(sharded_hypertee).items()}
    assert outcomes == expected_paper_matrix()["hypertee"]
    assert set(outcomes.values()) == {AttackOutcome.DEFENDED}
