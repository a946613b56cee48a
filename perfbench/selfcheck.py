#!/usr/bin/env python3
"""Self-check of the benchmark: its checks can fail, and it passes clean.

    python3 perfbench/selfcheck.py

1. Each planted wrong expectation (``run.py --plant``) must make its run
   exit 1 with ``"correct": false``: a corrupted readback expectation
   (serve_mix), a flipped quote report_data (gate_storm), a wrong shadow
   heap (page_rw), a recorded teesan violation (serve_sanitized), a
   perturbed modelled-totals pin, a perturbed traced counter and a line
   MAC function left unwrapped by the tracer.
2. A held-out seed passes every check on every workload, traced and
   untraced.
3. A directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   program source) makes the run exit non-zero without a result line.
4. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   prints, with the same units.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HELD_OUT_SEED = 90210
#: (plant, workload, trace, the failure the run must report)
PLANTED = (
    ("readback", "serve_mix", 0, "serve readback mismatch"),
    ("quote", "gate_storm", 0, "report_data does not match"),
    ("shadow", "page_rw", 0, "differs from the shadow copy"),
    ("san", "serve_sanitized", 0, "teesan reported violations"),
    ("pin", "page_rw", 0, "modelled totals differ"),
    ("count", "page_rw", 1, "traced hw.tlb.hits"),
    ("unwrapped", "page_rw", 1,
     "untraced call paths: repro.hw.encryption_engine.truncated_mac"),
)


def run(cwd: Path, workload: str, seed: int, trace: int,
        plant: str | None = None, seconds: str = "1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench
    from workloads import WORKLOADS

    ok = True

    def report(passed: bool, what: str, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {what}"
              + (f"\n{detail}" if detail and not passed else ""))

    for plant, workload, trace, reason in PLANTED:
        code, result, err = run(ROOT, workload, 1, trace, plant)
        report(code == 1 and result is not None
               and result["correct"] is False and reason in err,
               f"planted {plant} on {workload} fails the run", err)

    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            code, result, err = run(ROOT, workload, HELD_OUT_SEED, trace)
            report(code == 0 and result is not None and result["correct"],
                   f"held-out seed {HELD_OUT_SEED} passes {workload} "
                   f"trace={trace}", err)

    bare = bench.OUT_DIR / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, err = run(bare, "page_rw", 1, 0)
    shutil.rmtree(bare)
    report(code != 0 and result is None,
           "no program source: non-zero exit, no result", err)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": sorted(w["name"] for w in spec["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    printed = {"workloads": sorted(WORKLOADS),
               "end_to_end": bench.END_TO_END,
               "per_layer": bench.PER_LAYER}
    report(declared == printed, "BENCHMARK.json matches run.py",
           f"declared {declared}\nprinted {printed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
