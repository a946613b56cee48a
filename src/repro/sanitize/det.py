"""The DET sanitizer: replay determinism (lockstep divergence).

The model promises that one seed gives one run, bit for bit. DET
re-proves that promise *on a live workload*: it replays the same
deterministic scenario twice, each time on a freshly booted platform,
records an event trail per completed invocation (primitive, status,
CS cycles, EMS service cycles), and bisects the two trails to the first
divergent event. State that leaks from one platform into the next
(module globals, caches keyed on live objects, wall-clock or
process-hash dependence) shows up as a divergence.

The trail is collected by the :class:`DetTrail` hook sink, fed from the
EMCall gate at the same probe point the observability layer uses, so
the comparison sees exactly what a user would: cycle-accurate, in
invocation order.

``perturb_event`` deliberately skews one recorded cost on the second
trail — the seeded-violation self-check proving the detector can fail.
"""

from __future__ import annotations

from typing import Any

#: Fields of one trail entry, in comparison order.
_ENTRY_FIELDS = ("primitive", "status", "cs_cycles", "service_cycles")


class DetTrail:
    """Per-invocation event trail, recorded via the manager hooks."""

    def __init__(self, manager) -> None:
        self._manager = manager
        self.entries: list[tuple] = []

    def record(self, primitive: str, status: str, cs_cycles: int,
               service_cycles: int) -> None:
        """One completed invocation, in program order."""
        self.entries.append((primitive, status, cs_cycles,
                             service_cycles))


def bisect_divergence(a: list[tuple], b: list[tuple]) -> int | None:
    """Index of the first divergent event, or None for equal trails.

    Binary search over prefix equality: the longest common prefix is
    found in O(log n) prefix comparisons, and the event after it is
    the first divergence. A pure length mismatch diverges at the end
    of the shorter trail.
    """
    bound = min(len(a), len(b))
    lo, hi = 0, bound
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    if lo < bound:
        return lo
    if len(a) != len(b):
        return bound
    return None


def _entry_dict(trail: list[tuple], index: int) -> dict[str, Any] | None:
    if 0 <= index < len(trail):
        return dict(zip(_ENTRY_FIELDS, trail[index]))
    return None


def run_lockstep(seed: int = 0x1EE7,
                 perturb_event: int | None = None) -> dict[str, Any]:
    """Replay the sanitized scenario twice and compare the trails.

    Returns the lockstep report document. ``perturb_event`` bumps one
    recorded cost on the second replay's trail before comparison (the
    detector's own negative self-check; the modelled systems are never
    touched).
    """
    from repro.sanitize.scenario import run_sanitized_scenario

    trail_a, trail_b = (
        list(run_sanitized_scenario(seed=seed, sanitizers=("det",))
             .det.entries)
        for _ in range(2))
    if perturb_event is not None and 0 <= perturb_event < len(trail_b):
        primitive, status, cs_cycles, service_cycles = \
            trail_b[perturb_event]
        trail_b[perturb_event] = (primitive, status, cs_cycles + 1,
                                  service_cycles)
    divergence = bisect_divergence(trail_a, trail_b)
    return {
        "schema": "hypertee.teesan.det/2",
        "seed": seed,
        "events": [len(trail_a), len(trail_b)],
        "ok": divergence is None,
        "first_divergence": divergence,
        "diverged_a": _entry_dict(trail_a, divergence)
        if divergence is not None else None,
        "diverged_b": _entry_dict(trail_b, divergence)
        if divergence is not None else None,
        "perturb_event": perturb_event,
    }


def format_lockstep_report(report: dict[str, Any]) -> str:
    """Human rendering; ASan-style ERROR line on divergence."""
    if report["ok"]:
        return (f"TeeSan DET: two replays ran {report['events'][0]} "
                f"events in lockstep (seed {report['seed']:#x})")
    index = report["first_divergence"]
    lines = [
        f"ERROR: TeeSan LOCKSTEP-DIVERGENCE: replays diverged at event "
        f"{index} (seed {report['seed']:#x})",
    ]
    for name, entry in (("replay 1", report["diverged_a"]),
                        ("replay 2", report["diverged_b"])):
        if entry is None:
            lines.append(f"    {name}: trail ended before event {index}")
        else:
            detail = " ".join(f"{key}={value}"
                              for key, value in entry.items())
            lines.append(f"    {name}: {detail}")
    return "\n".join(lines)
