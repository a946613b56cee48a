#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload page_rw --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; nothing is
installed. A *round* sets up a fresh platform and drives the workload's
``round_ops`` ops generated for that round through it in a closed
loop, timing each op alone. Timings are host time
scaled to a fixed reference host speed (``calibration.py``); raw
figures are printed beside them. With ``--trace 0`` the run repeats
rounds until ``--seconds`` have passed, at least :data:`MIN_ROUNDS`
rounds and :data:`MIN_OPS` ops. With ``--trace 1`` it runs one round
untraced and the same round traced (see ``tracing.py``) and reports the
per-layer breakdown. Every run checks the program's outputs (see
``workloads.py``) and that each round's modelled totals repeat exactly
for the seed. The last line of standard output is one JSON object; the
exit code is 0 only if every check passed, and 2 when the program
source is missing.

``--plant`` (used by ``selfcheck.py`` only) plants one wrong
expectation so the run must fail.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from calibration import ScaledDurations, timed_scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Pinned modelled totals (per seed and source tree) and span dumps.
OUT_DIR = BENCH_DIR / "out"
#: Every timed run completes at least this many ops, so at least ten
#: samples lie beyond p99.
MIN_OPS = 1000
#: Every timed run has at least this many rounds (and set-ups).
MIN_ROUNDS = 5
PLANTS = ("readback", "quote", "shadow", "san", "pin", "count", "unwrapped")

#: name -> unit, printed with ``--trace 0`` (all must be non-zero).
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: name -> unit, printed with ``--trace 1``.
PER_LAYER = {
    "crypto.self_s": "s",
    "crypto.mac_calls": "count",
    "crypto.keystream_blocks": "count",
    "hw.encryption_engine.self_s": "s",
    "hw.encryption_engine.mac_lines_recorded": "count",
    "hw.encryption_engine.mac_lines_verified": "count",
    "hw.memory.self_s": "s",
    "hw.memory.reads": "count",
    "hw.memory.writes": "count",
    "hw.memory.bytes": "count",
    "hw.page_table.self_s": "s",
    "hw.page_table.walks": "count",
    "hw.tlb.self_s": "s",
    "hw.tlb.hits": "count",
    "hw.tlb.misses": "count",
    "hw.tlb.hit_ratio": "ratio",
    "hw.tlb.flushes": "count",
    "cs.emcall.self_s": "s",
    "cs.emcall.calls": "count",
    "hw.mailbox.self_s": "s",
    "hw.mailbox.calls": "count",
    "hw.mailbox.requests_sent": "count",
    "hw.mailbox.poll_attempts": "count",
    "ems.runtime.self_s": "s",
    "ems.runtime.served": "count",
    "ems.runtime.failed": "count",
    "ems.runtime.ok_ratio": "ratio",
    "ems.runtime.service_mcycles": "Mcycles",
    "ems.lifecycle.self_s": "s",
    "ems.memory_pool.self_s": "s",
    "ems.memory_pool.takes": "count",
    "ems.memory_pool.returns": "count",
    "ems.memory_pool.refills": "count",
    "ems.shardpool.self_s": "s",
    "ems.shardpool.transfers": "count",
    "core.api.self_s": "s",
    "core.api.calls": "count",
    "obs.self_s": "s",
    "obs.calls": "count",
    "sanitize.self_s": "s",
    "sanitize.events": "count",
    "other.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "model.requests": "count",
    "model.primitive_mcycles": "Mcycles",
}
#: Units of the figures printed beside the metrics (unitless: none).
EXTRA_UNITS = {
    "rounds": "rounds",
    "samples": "ops",
    "setup_samples": "set-ups",
    "reqs_per_s": "1/s",
    "ops_failed_frac": "ratio",
    "raw_ops_per_s": "1/s",
    "raw_op_p50_ms": "ms",
    "wall_s": "s",
    "untraced_ops_per_s": "1/s",
    "traced_ops_per_s": "1/s",
}
#: Traced counts that must equal the program's own counters.
COUNTED_BY_PROGRAM = (
    "hw.mailbox.requests_sent", "hw.mailbox.poll_attempts",
    "ems.runtime.served", "ems.runtime.failed",
    "ems.runtime.service_cycles", "hw.tlb.hits", "hw.tlb.misses",
    "hw.tlb.flushes", "hw.page_table.walks", "ems.memory_pool.takes",
    "ems.memory_pool.returns", "ems.shardpool.transfers",
    "sanitize.events")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=PLANTS, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tree_digest(*roots: Path) -> str:
    """SHA-256 over the ``.py`` files under ``roots`` (``out/`` skipped)."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if OUT_DIR in path.parents:
                continue
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host_facts(digest: str) -> dict[str, Any]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": digest[:16]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """What one round of the op loop measured and found."""

    def __init__(self) -> None:
        #: Per-op host time scaled to the reference speed, and raw.
        self.durations: list[float] = []
        self.raw_durations: list[float] = []
        self.failure: str | None = None
        self.completed = 0
        self.start_totals: dict[str, Any] = {}
        self.end_totals: dict[str, Any] = {}

    @property
    def attempted(self) -> int:
        return self.completed + (1 if self.failure else 0)

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)

    @property
    def requests(self) -> int:
        return (self.end_totals["requests_served"]
                - self.start_totals["requests_served"])


def drive(workload, ctx, round_index: int, tracer=None) -> Run:
    """One round: issue, time and check ``round_ops`` ops in a closed loop."""
    from workloads import CheckFailed

    clock = time.perf_counter
    run = Run()
    run.start_totals = workload.model_totals(ctx)
    gc.collect()
    times = ScaledDurations()
    specs = workload.specs(round_index)
    for done in range(workload.round_ops):
        spec = next(specs)
        if tracer is not None:
            tracer.begin_op(done)
        try:
            t0 = clock()
            outcome = workload.run_op(ctx, spec)
            elapsed = clock() - t0
        except Exception:  # noqa: BLE001 - any op error fails the run
            run.failure = f"op {done} ({spec.kind}) raised:\n" + \
                traceback.format_exc()
            return run
        finally:
            if tracer is not None:
                tracer.end_op()
        try:
            workload.check(ctx, spec, outcome)
        except CheckFailed as exc:
            run.failure = f"op {done} ({spec.kind}): {exc}"
            return run
        run.completed += 1
        times.add(elapsed)
    times.flush()
    run.durations, run.raw_durations = times.scaled, times.raw
    try:
        workload.finish(ctx)
    except CheckFailed as exc:
        run.failure = f"deferred check: {exc}"
    run.end_totals = workload.model_totals(ctx)
    return run


def check_pins(workload, run: Run, round_index: int, digest: str,
               failures: list[str]) -> bool:
    """A round's modelled totals must repeat exactly for its seed.

    The first run of a seed records each round's totals; every later run
    of that seed, traced or not, must reproduce them. ``digest`` covers
    the program source and the benchmark's own files, so changing either
    starts fresh pins instead of comparing against stale ones.
    """
    totals = {"start": run.start_totals, "end": run.end_totals}
    path = OUT_DIR / "pins" / (
        f"{workload.name}-seed{workload.seed}-round{round_index}-"
        f"{digest[:16]}.json")
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(totals, sort_keys=True) + "\n")
    if workload.plant == "pin":
        totals["end"] = dict(totals["end"], requests_served=totals["end"]
                             ["requests_served"] + 1)
    expected = json.loads(path.read_text())
    if totals != expected:
        failures.append(f"modelled totals differ from {path.name}: "
                        f"got {totals}, pinned {expected}")
        return False
    return True


def timed_run(workload, seconds: float, digest: str,
              failures: list[str]) -> tuple[int, dict[str, float], dict]:
    """Rounds on fresh platforms until ``seconds`` have passed."""
    rounds: list[Run] = []
    setup_times: list[float] = []
    t_start = time.perf_counter()
    while True:
        gc.collect()
        ctx, setup_s = timed_scaled(workload.setup)
        setup_times.append(setup_s)
        run = drive(workload, ctx, len(rounds))
        ctx = None
        rounds.append(run)
        if run.failure:
            failures.append(run.failure)
            break
        if not check_pins(workload, run, len(rounds) - 1, digest, failures):
            break
        if len(rounds) >= MIN_ROUNDS and \
                len(rounds) * workload.round_ops >= MIN_OPS and \
                time.perf_counter() - t_start >= seconds:
            break
    attempted = sum(r.attempted for r in rounds)
    durations = [d for r in rounds for d in r.durations]
    raw = [d for r in rounds for d in r.raw_durations]
    metrics = {}
    if not failures:
        metrics = {
            "ops_per_s": len(durations) / sum(durations),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_p99_ms": statistics.quantiles(durations, n=100)[98] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
    extra = {
        "rounds": len(rounds),
        "samples": len(durations),
        "setup_samples": len(setup_times),
        "reqs_per_s": (sum(r.requests for r in rounds) / sum(durations)
                       if not failures else 0.0),
        "ops_failed_frac": (1 if failures else 0) / max(attempted, 1),
        "raw_ops_per_s": len(raw) / sum(raw) if raw else 0.0,
        "raw_op_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
        "wall_s": time.perf_counter() - t_start,
    }
    return attempted, metrics, extra


def program_counters(tee) -> dict[str, int]:
    """The program's own counters matching the traced ones, fleet-wide."""
    system = tee.system
    shards = system.shard_pool.shards[1:] if system.shard_pool else []
    mailboxes = [system.mailbox] + [s.mailbox for s in shards]
    pools = [system.pool] + [s.pool for s in shards]
    runtimes = system.ems_runtimes
    tlbs = [core.tlb.stats for core in system.cores]
    return {
        "hw.mailbox.requests_sent": sum(m.stats.requests_sent
                                        for m in mailboxes),
        "hw.mailbox.poll_attempts": sum(m.stats.poll_attempts
                                        for m in mailboxes),
        "ems.runtime.served": sum(r.stats.served for r in runtimes),
        "ems.runtime.failed": sum(r.stats.failed for r in runtimes),
        "ems.runtime.service_cycles": sum(r.stats.total_service_cycles
                                          for r in runtimes),
        "hw.tlb.hits": sum(t.hits for t in tlbs),
        "hw.tlb.misses": sum(t.misses for t in tlbs),
        "hw.tlb.flushes": sum(t.full_flushes + t.selective_flushes
                              for t in tlbs),
        "hw.page_table.walks": sum(core.ptw.stats.walks
                                   for core in system.cores),
        "ems.memory_pool.takes": sum(p.stats.takes for p in pools),
        "ems.memory_pool.returns": sum(p.stats.returns for p in pools),
        "ems.memory_pool.refills": sum(p.stats.refills for p in pools),
        "ems.shardpool.transfers": (system.shard_pool.transfers_committed
                                    if system.shard_pool else 0),
        "sanitize.events": system.san.stats.events if system.san else 0,
    }


def traced_run(workload, digest: str,
               failures: list[str]) -> tuple[int, dict[str, float], dict]:
    """One round untraced, then the same round traced on a fresh platform."""
    from tracing import Tracer

    plain = drive(workload, workload.setup(), 0)
    if plain.failure:
        failures.append(plain.failure)
        return plain.attempted, {}, {}
    check_pins(workload, plain, 0, digest, failures)

    tracer = Tracer()
    tracer.install()
    if workload.plant == "unwrapped":
        engine = sys.modules["repro.hw.encryption_engine"]
        engine.truncated_mac = engine.truncated_mac.__wrapped__
    ctx = workload.setup()
    before = program_counters(ctx["tee"])
    traced = drive(workload, ctx, 0, tracer=tracer)
    after = program_counters(ctx["tee"])
    if traced.failure:
        failures.append(traced.failure)
        return traced.attempted, {}, {}
    missed = tracer.untraced()
    if missed:
        failures.append("untraced call paths: " + ", ".join(missed))
    if traced.end_totals != plain.end_totals:
        failures.append("tracing changed the modelled totals: "
                        f"{traced.end_totals} != {plain.end_totals}")

    counts = dict(tracer.counts)
    if workload.plant == "count":
        counts["hw.tlb.hits"] = counts.get("hw.tlb.hits", 0) + 1
    for key in COUNTED_BY_PROGRAM:
        program = after[key] - before[key]
        if counts.get(key, 0) != program:
            failures.append(f"traced {key} = {counts.get(key, 0)} but the "
                            f"program counted {program}")

    self_s = tracer.layer_self_times()
    calls = tracer.layer_calls()
    hits, misses = counts.get("hw.tlb.hits", 0), counts.get("hw.tlb.misses", 0)
    served = counts.get("ems.runtime.served", 0)
    failed = counts.get("ems.runtime.failed", 0)
    start, end = traced.start_totals, traced.end_totals
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = self_s.get(layer, 0.0)
        elif field == "calls":
            metrics[name] = calls.get(layer, 0)
        else:
            metrics[name] = counts.get(name, 0)
    metrics.update({
        "hw.tlb.hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
        "ems.runtime.ok_ratio": (served / (served + failed)
                                 if served + failed else 1.0),
        "ems.runtime.service_mcycles":
            counts.get("ems.runtime.service_cycles", 0) / 1e6,
        "ems.memory_pool.refills": (after["ems.memory_pool.refills"]
                                    - before["ems.memory_pool.refills"]),
        "trace.overhead_frac": 1.0 - traced.ops_per_s / plain.ops_per_s,
        "trace.spans": len(tracer.span_start),
        "model.requests": traced.requests,
        "model.primitive_mcycles": (end["primitive_cycles"]
                                    - start["primitive_cycles"]) / 1e6,
    })
    span_file = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.bin"
    tracer.write(span_file)
    extra = {"samples": len(traced.durations),
             "untraced_ops_per_s": plain.ops_per_s,
             "traced_ops_per_s": traced.ops_per_s,
             "spans_file": str(span_file.relative_to(ROOT))}
    return traced.attempted, metrics, extra


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "core" / "api.py").is_file():
        print(f"error: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, plant=args.plant)
    facts = host_facts(tree_digest(SRC / "repro"))
    digest = tree_digest(SRC / "repro", BENCH_DIR)
    failures: list[str] = []
    if args.trace:
        attempted, metrics, extra = traced_run(workload, digest, failures)
        units = PER_LAYER
    else:
        attempted, metrics, extra = timed_run(workload, args.seconds,
                                              digest, failures)
        units = END_TO_END
    correct = not failures and set(metrics) == set(units)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    for key, value in extra.items():
        print(f"  {key:<40} {value} {EXTRA_UNITS.get(key, '')}".rstrip())
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": 1 if failures else 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
