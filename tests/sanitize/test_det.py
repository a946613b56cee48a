"""The DET sanitizer: bisection laws and the replay lockstep check.

``bisect_divergence`` is pinned against a linear-scan oracle with
hypothesis; the integration tests replay the reference scenario twice
on fresh platforms and check the seeded perturbation is bisected.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitize.det import (
    bisect_divergence,
    format_lockstep_report,
    run_lockstep,
)

entries = st.tuples(st.sampled_from(["ECREATE", "EADD", "EENTER"]),
                    st.sampled_from(["ok", "fail"]),
                    st.integers(min_value=0, max_value=10_000),
                    st.integers(min_value=0, max_value=10_000))


def _oracle(a: list, b: list) -> int | None:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


@settings(max_examples=80, deadline=None)
@given(a=st.lists(entries, max_size=30), b=st.lists(entries, max_size=30))
def test_bisect_matches_linear_oracle(a, b):
    assert bisect_divergence(a, b) == _oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(trail=st.lists(entries, min_size=1, max_size=30),
       data=st.data())
def test_bisect_finds_a_single_perturbation_exactly(trail, data):
    index = data.draw(st.integers(min_value=0, max_value=len(trail) - 1))
    perturbed = list(trail)
    name, status, cs, svc = perturbed[index]
    perturbed[index] = (name, status, cs + 1, svc)
    assert bisect_divergence(trail, perturbed) == index


def test_equal_trails_have_no_divergence():
    trail = [("EENTER", "ok", 10, 5)] * 8
    assert bisect_divergence(trail, list(trail)) is None
    assert bisect_divergence([], []) is None


def test_length_mismatch_diverges_at_the_shorter_end():
    trail = [("EADD", "ok", 3, 1)] * 4
    assert bisect_divergence(trail, trail[:2]) == 2
    assert bisect_divergence(trail[:2], trail) == 2


def test_reference_replays_run_in_lockstep():
    report = run_lockstep()
    assert report["schema"] == "hypertee.teesan.det/2"
    assert report["ok"] is True
    assert report["first_divergence"] is None
    assert report["events"][0] == report["events"][1] > 0
    text = format_lockstep_report(report)
    assert "two replays ran" in text and "in lockstep" in text
    assert "ERROR" not in text


def test_perturbed_lockstep_is_detected_and_bisected():
    report = run_lockstep(perturb_event=3)
    assert report["ok"] is False
    assert report["first_divergence"] == 3
    assert report["diverged_a"]["cs_cycles"] + 1 == \
        report["diverged_b"]["cs_cycles"]
    text = format_lockstep_report(report)
    assert "ERROR: TeeSan LOCKSTEP-DIVERGENCE" in text
    assert "diverged at event 3" in text


def test_lockstep_is_seed_stable():
    """Same seed, same trails: the report is deterministic."""
    assert run_lockstep(seed=0xD0D0) == run_lockstep(seed=0xD0D0)
