"""Engine throughput benchmarking and the fast-kernel gate (BENCH_pr7).

``BENCH_pr6.json`` gates *modelled* latency — cycles the simulation
charges. What nothing gated until now is how fast the simulator itself
runs: the whole point of :mod:`repro.core.fastkernel` is wall-clock
throughput, and an optimization that quietly decays (or quietly
diverges from the reference) should fail CI, not a code reviewer's
intuition. This module closes that gap with a two-part artifact:

* a **deterministic** section per scenario — simulated requests served,
  total modelled CS cycles, and a SHA-256 digest of all of physical
  memory — recorded once because both engines are required to produce
  *identical* values (the build refuses to write the artifact
  otherwise). :func:`check_report` re-runs both engines and compares
  these fields exactly: any drift is a structural failure, equivalent
  to regenerating the artifact and diffing it, and any reference/fast
  disagreement is a kernel-divergence failure.
* a **measured** section — requests/second per engine and the
  fast/reference speedup. Wall-clock numbers are machine-local, so the
  committed rps values are informational; what the gate enforces is the
  *speedup ratio* (both engines run on the same machine back-to-back,
  so the ratio transfers): the fresh geometric-mean speedup must stay
  at or above :data:`GATE_GEOMEAN_SPEEDUP`, and each scenario's speedup
  must stay inside a calibrated band around its committed value.

The band is calibrated like the latency gate's: the measurement repeats
:data:`CALIBRATION_REPEATS` extra times at build, and the tolerance is
the worst observed relative deviation times :data:`SAFETY_FACTOR`,
floored at :data:`TOLERANCE_FLOOR` (generous, because this is the one
artifact in the repo whose inputs are wall-clock, not modelled).

Scenarios run on a deliberately small memory pool
(:data:`POOL_PAGES`) with warm-up rounds sized to cycle every pool
frame at least once, so the fast kernel's frame-slot caches are
measured in steady state — the regime a long-running evaluation sweep
actually sits in — rather than during first-touch fills.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Artifact document version; bump on any schema change.
SCHEMA = "hypertee.throughput/1"

#: Default committed artifact name.
DEFAULT_REPORT = "BENCH_pr7.json"

#: Seed for the committed baseline (deterministic sections depend on it).
DEFAULT_SEED = 0xFA57

#: The engines under comparison, reference first.
ENGINES = ("reference", "fast")

#: Hard floor on the fresh geometric-mean speedup (the PR's headline
#: claim; CI fails if the fast kernel decays below it).
GATE_GEOMEAN_SPEEDUP = 3.0

#: Calibrated noise, widened by this factor to keep the gate quiet.
SAFETY_FACTOR = 2.0

#: Minimum speedup tolerance: wall-clock ratios on shared CI runners
#: jitter far more than modelled cycles do.
TOLERANCE_FLOOR = 0.25

#: Extra measurement repeats used only to calibrate the noise band.
CALIBRATION_REPEATS = 2

#: Result fields that depend only on (scenario, seed), never on the
#: engine or the clock.
DETERMINISTIC_FIELDS = ("requests", "primitive_cycles", "state_digest")

#: Fresh-platform runs behind every measured rate; the best is kept, as
#: with ``timeit.repeat``: a shared host only ever slows a run down, and
#: a fast-engine window is short enough (~0.1 s) for one stall to halve it.
TIMING_REPEATS = 3

#: Enclave-pool size for throughput scenarios: small enough that the
#: warm-up rounds cycle every frame (the pool free list is FIFO, so a
#: frame recycles only after the whole pool has turned over).
POOL_PAGES = 256


@dataclass(frozen=True)
class Scenario:
    """One throughput workload: a per-round body plus its warm-up."""

    name: str
    #: Rounds run before timing starts (sized to turn the pool over).
    warm: int
    #: Rounds inside the timed window.
    timed: int
    #: (enclave, data) -> None; one round of work.
    body: Callable[[Any, bytes], None]


def _round_alloc_scalar(enclave, data: bytes) -> None:
    vaddrs = [enclave.ealloc(2) for _ in range(8)]
    for vaddr in vaddrs:
        enclave.efree(vaddr)


def _round_alloc_batch(enclave, data: bytes) -> None:
    vaddrs = enclave.ealloc_many([4] * 8)
    enclave.efree_many(vaddrs)


def _round_page_rw(enclave, data: bytes) -> None:
    vaddrs = enclave.ealloc_many([2] * 4)
    for vaddr in vaddrs:
        enclave.write(vaddr, data)
        enclave.read(vaddr, len(data))
    enclave.efree_many(vaddrs)


def _round_mixed(enclave, data: bytes) -> None:
    from repro.common.types import Permission

    vaddrs = enclave.ealloc_many([2] * 4)
    for vaddr in vaddrs:
        enclave.write(vaddr, data[:4096])
    region = enclave.create_shared_region(1, Permission.RW)
    share_va = enclave.attach(region)
    enclave.write(share_va, b"shm bytes")
    enclave.detach(region)
    enclave.destroy_region(region)
    enclave.efree_many(vaddrs)


#: The throughput suite, in artifact order. All four shapes exercise the
#: simulation kernel's hot paths (EMCall transport + memory datapath);
#: ``mixed`` includes per-round shared-memory key churn, which bounds
#: the achievable speedup by construction (fresh keys mean cold caches).
SCENARIOS: tuple[Scenario, ...] = (
    Scenario("alloc_scalar", warm=35, timed=30, body=_round_alloc_scalar),
    Scenario("alloc_batch", warm=10, timed=30, body=_round_alloc_batch),
    Scenario("page_rw", warm=35, timed=30, body=_round_page_rw),
    Scenario("mixed", warm=20, timed=30, body=_round_mixed),
)

#: Scenario lookup by name.
SCENARIOS_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}


def memory_digest(system) -> str:
    """SHA-256 over all of physical memory (raw stored bytes)."""
    digest = hashlib.sha256()
    memory = system.memory
    step = 1 << 20
    for base in range(0, memory.size_bytes, step):
        digest.update(memory.read_raw(
            base, min(step, memory.size_bytes - base)))
    return digest.hexdigest()


def run_scenario(scenario: Scenario, engine: str,
                 seed: int = DEFAULT_SEED) -> dict[str, Any]:
    """One scenario on one engine: deterministic outcome + measured rate.

    The deterministic fields (``requests``, ``primitive_cycles``,
    ``state_digest``) depend only on (scenario, seed) — never on the
    engine or on the clock — and are what the differential gate pins.
    The rate is the best of :data:`TIMING_REPEATS` runs, each on a fresh
    platform; the runs must agree on every deterministic field.
    """
    runs = [_run_once(scenario, engine, seed) for _ in range(TIMING_REPEATS)]
    for run in runs[1:]:
        for key in DETERMINISTIC_FIELDS:
            if run[key] != runs[0][key]:
                raise RuntimeError(
                    f"non-deterministic scenario {scenario.name!r} on "
                    f"{engine}: {key} {runs[0][key]!r} != {run[key]!r}")
    return max(runs, key=lambda run: run["rps"])


def _run_once(scenario: Scenario, engine: str, seed: int) -> dict[str, Any]:
    from repro.core.api import HyperTEE
    from repro.core.config import SystemConfig
    from repro.core.enclave import EnclaveConfig

    tee = HyperTEE(SystemConfig(seed=seed, engine=engine,
                                pool_initial_pages=POOL_PAGES))
    enclave = tee.launch_enclave(
        b"throughput scenario enclave " * 16,
        EnclaveConfig(name=f"tput-{scenario.name}",
                      heap_pages_max=(scenario.warm + scenario.timed) * 40))
    data = bytes(range(256)) * 32  # 8 KiB: two pages, non-zero content
    with enclave.running():
        for _ in range(scenario.warm):
            scenario.body(enclave, data)
        served_before = tee.system.ems_requests_served()
        # The collector stays off while timing, as in timeit: a full
        # collection over a large host heap (a long test session's)
        # pauses for tens of milliseconds, as long as a whole timed
        # window of the fast engine, and would be charged to whichever
        # engine it happened to land in.
        gc.collect()
        collector_was_on = gc.isenabled()
        gc.disable()
        try:
            # Wall-clock is the measured quantity here, not modelled
            # state: the simulation's outcome is identical with or
            # without timing.
            start = time.perf_counter()  # teelint: disable=TEE002 -- host-side benchmark timing, outside the modelled system
            for _ in range(scenario.timed):
                scenario.body(enclave, data)
            elapsed = time.perf_counter() - start  # teelint: disable=TEE002 -- host-side benchmark timing, outside the modelled system
        finally:
            if collector_was_on:
                gc.enable()
    served = tee.system.ems_requests_served() - served_before
    result = {
        "requests": tee.system.ems_requests_served(),
        "primitive_cycles": tee.primitive_cycles,
        "state_digest": memory_digest(tee.system),
        "rps": served / elapsed,
    }
    slots = getattr(tee.system.engine, "slots", None)
    if slots is not None:
        result["cache"] = {
            "stream_hits": slots.stream_hits,
            "stream_fills": slots.stream_fills,
            "mac_hits": slots.mac_hits,
            "mac_fills": slots.mac_fills,
        }
    return result


def _measure_pair(scenario: Scenario, seed: int
                  ) -> tuple[dict[str, Any], dict[str, Any]]:
    """(reference result, fast result), divergence-checked."""
    reference = run_scenario(scenario, "reference", seed)
    fast = run_scenario(scenario, "fast", seed)
    for key in DETERMINISTIC_FIELDS:
        if reference[key] != fast[key]:
            raise RuntimeError(
                f"engine divergence in scenario {scenario.name!r}: "
                f"{key} reference={reference[key]!r} fast={fast[key]!r}")
    return reference, fast


def _geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def build_report(seed: int = DEFAULT_SEED,
                 calibration_repeats: int = CALIBRATION_REPEATS
                 ) -> dict[str, Any]:
    """The throughput baseline: deterministic pins + measured speedups.

    Raises :class:`RuntimeError` on any reference/fast divergence — a
    diverging kernel must never produce a committed artifact.
    """
    scenarios: dict[str, Any] = {}
    speedups: list[float] = []
    for scenario in SCENARIOS:
        reference, fast = _measure_pair(scenario, seed)
        speedup = fast["rps"] / reference["rps"]
        worst = 0.0
        for _ in range(calibration_repeats):
            cal_ref, cal_fast = _measure_pair(scenario, seed)
            cal_speedup = cal_fast["rps"] / cal_ref["rps"]
            worst = max(worst, abs(cal_speedup - speedup) / speedup)
        tolerance = round(max(worst * SAFETY_FACTOR, TOLERANCE_FLOOR), 4)
        speedups.append(speedup)
        scenarios[scenario.name] = {
            "requests": reference["requests"],
            "primitive_cycles": reference["primitive_cycles"],
            "state_digest": reference["state_digest"],
            "measured": {
                "reference_rps": round(reference["rps"], 1),
                "fast_rps": round(fast["rps"], 1),
                "speedup": round(speedup, 3),
                "cache": fast["cache"],
            },
            "tolerance": tolerance,
        }
    return {
        "schema": SCHEMA,
        "seed": seed,
        "gate_geomean_speedup": GATE_GEOMEAN_SPEEDUP,
        "geomean_speedup": round(_geomean(speedups), 3),
        "scenarios": scenarios,
    }


def check_report(committed: dict[str, Any],
                 scale_fast: float = 1.0) -> tuple[bool, list[str]]:
    """Re-run the suite on both engines and gate against ``committed``.

    Three layers, strictest first:

    1. deterministic fields must equal the artifact *exactly* (and the
       two engines each other — enforced inside the measurement);
    2. the fresh geometric-mean speedup must be >= the committed gate;
    3. each scenario's speedup must sit inside its calibrated band
       (slower -> failure; faster -> noted, re-baseline when convenient).

    Returns ``(ok, messages)``. ``scale_fast`` multiplies the fast
    engine's measured rate — a test hook that simulates a fast-kernel
    slowdown without patching the kernel.
    """
    if committed.get("schema") != SCHEMA:
        return False, [f"artifact schema {committed.get('schema')!r} != "
                       f"{SCHEMA} (regenerate with --throughput-out)"]
    seed = committed["seed"]
    gate = committed.get("gate_geomean_speedup", GATE_GEOMEAN_SPEEDUP)
    messages: list[str] = []
    ok = True
    speedups: list[float] = []
    for name, baseline in committed["scenarios"].items():
        scenario = SCENARIOS_BY_NAME.get(name)
        if scenario is None:
            ok = False
            messages.append(f"{name}: unknown scenario in artifact")
            continue
        try:
            reference, fast = _measure_pair(scenario, seed)
        except RuntimeError as exc:
            ok = False
            messages.append(str(exc))
            continue
        for key in DETERMINISTIC_FIELDS:
            if reference[key] != baseline[key]:
                ok = False
                messages.append(
                    f"{name}: {key} {reference[key]!r} != committed "
                    f"{baseline[key]!r} (modelled behaviour changed; "
                    "re-baseline deliberately)")
        speedup = fast["rps"] * scale_fast / reference["rps"]
        speedups.append(speedup)
        pinned = baseline["measured"]["speedup"]
        tolerance = baseline["tolerance"]
        deviation = abs(speedup - pinned) / pinned
        if deviation > tolerance:
            if speedup < pinned:
                ok = False
                messages.append(
                    f"{name}: speedup regressed {pinned:.2f}x -> "
                    f"{speedup:.2f}x (-{deviation:.1%}, band "
                    f"{tolerance:.1%})")
            else:
                messages.append(
                    f"{name}: speedup improved {pinned:.2f}x -> "
                    f"{speedup:.2f}x (+{deviation:.1%}); consider "
                    "re-baselining")
    if speedups:
        geomean = _geomean(speedups)
        if geomean < gate:
            ok = False
            messages.append(
                f"geomean speedup {geomean:.2f}x below the {gate:.1f}x "
                "gate: the fast kernel no longer earns its keep")
        else:
            messages.append(
                f"geomean speedup {geomean:.2f}x (gate {gate:.1f}x)")
    if ok:
        messages.append("throughput check passed: engines identical, "
                        "speedup inside every calibrated band")
    return ok, messages


def render_report(report: dict[str, Any]) -> str:
    """The artifact as a readable table."""
    from repro.eval.report import render_table

    rows = []
    for name, scenario in report["scenarios"].items():
        measured = scenario["measured"]
        rows.append([
            name, scenario["requests"],
            f"{measured['reference_rps']:.0f}",
            f"{measured['fast_rps']:.0f}",
            f"{measured['speedup']:.2f}x",
            f"{scenario['tolerance']:.0%}",
        ])
    return render_table(
        f"Engine throughput (sim-req/s, seed {report['seed']:#x}; "
        f"geomean {report['geomean_speedup']:.2f}x, "
        f"gate {report['gate_geomean_speedup']:.1f}x)",
        ["scenario", "requests", "ref req/s", "fast req/s", "speedup",
         "band"], rows)


def write_report(report: dict[str, Any], path: str) -> None:
    """Serialize deterministically (stable key order, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> dict[str, Any]:
    """Read a committed artifact back."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
