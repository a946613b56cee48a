"""Tracer mechanics and the Chrome trace_event export."""

from __future__ import annotations

import json

from repro.obs.probes import Observability
from repro.obs.trace import Tracer, walk_roots


def _record_one_invocation(tracer: Tracer) -> None:
    root = tracer.add_span("EALLOC", "primitive", tracer.clock, 1000)
    tracer.add_span("emcall.gate", "emcall", tracer.clock, 350, parent=root)
    tracer.add_span("mailbox.request", "mailbox", tracer.clock + 350, 60,
                    parent=root)
    tracer.advance(1000)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.add_span("x", "cat", 0, 10) is None
    tracer.advance(10)
    assert len(tracer) == 0 and tracer.clock == 0.0


def test_span_tree_and_queries():
    tracer = Tracer(enabled=True)
    _record_one_invocation(tracer)
    _record_one_invocation(tracer)
    assert len(tracer) == 6
    roots = list(walk_roots(tracer.spans()))
    assert [r.name for r in roots] == ["EALLOC", "EALLOC"]
    assert roots[1].start_cycle == 1000  # second invocation after advance
    kids = tracer.children_of(roots[0])
    assert [k.name for k in kids] == ["emcall.gate", "mailbox.request"]
    assert kids[1].end_cycle == 410
    assert tracer.find("mailbox.", category="mailbox")
    assert not tracer.find("mailbox.", category="emcall")


def test_capacity_drops_are_counted():
    tracer = Tracer(enabled=True, max_spans=2)
    for _ in range(4):
        tracer.add_span("s", "c", 0, 1)
    assert len(tracer) == 2 and tracer.dropped == 2


def test_clear_resets_everything():
    tracer = Tracer(enabled=True)
    _record_one_invocation(tracer)
    tracer.clear()
    assert len(tracer) == 0 and tracer.clock == 0.0 and tracer.dropped == 0


def test_chrome_export_shape(tmp_path):
    tracer = Tracer(enabled=True)
    _record_one_invocation(tracer)
    path = tmp_path / "trace.json"
    tracer.write_chrome_json(str(path))
    doc = json.loads(path.read_text())

    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert len(events) == 3
    assert meta and meta[0]["name"] == "thread_name"
    assert doc["otherData"]["clock"] == "cs-cycles"

    # Cycle -> microsecond conversion at the CS clock (2.5 GHz default).
    root = next(e for e in events if e["name"] == "EALLOC")
    assert root["ts"] == 0 and root["dur"] == 1000 * 1e6 / 2.5e9
    gate = next(e for e in events if e["name"] == "emcall.gate")
    assert gate["args"]["parent_id"] == root["args"]["span_id"]
    # Children nest inside the root by time containment.
    assert root["ts"] <= gate["ts"]
    assert gate["ts"] + gate["dur"] <= root["ts"] + root["dur"] + 1e-9


def _invoke(obs: Observability, request_id: int, handler: bool) -> None:
    if handler:
        obs.record_ems_dispatch(request_id=request_id, primitive="EALLOC",
                                status="ok", service_cycles=400,
                                core_index=0)
    obs.record_invocation(
        primitive="EALLOC", status="ok", request_id=request_id,
        cs_cycles=1500, dispatch_cycles=350, transfer_cycles=60,
        service_cycles=400, jitter_cycles=7, polls=2, enclave_id=1,
        core_id=0)


def test_ring_keeps_the_most_recent_whole_records():
    obs = Observability(enabled=True)
    tracer = obs.tracer
    tracer.max_spans = 20
    issued = 0
    for request_id in range(1, 12):
        _invoke(obs, request_id, handler=request_id % 3 == 0)
        issued += 7 if request_id % 3 == 0 else 6
        if request_id == 5:
            tracer.spans()  # some records expanded, later ones deferred
    spans = tracer.spans()
    assert len(tracer) == len(spans) <= 20
    assert tracer.dropped == issued - len(spans)
    # The retained ids are the newest ones, with no gaps.
    ids = [s.span_id for s in spans]
    assert ids == list(range(issued - len(spans) + 1, issued + 1))
    retained = set(ids)
    assert all(s.parent_id in retained for s in spans
               if s.parent_id is not None)
    roots = [s for s in spans if s.parent_id is None]
    assert [r.attrs["request_id"] for r in roots] == [9, 10, 11]
    doc = tracer.export_chrome()
    assert doc["otherData"]["dropped_spans"] == tracer.dropped


def test_record_larger_than_the_ring_is_dropped_and_counted():
    obs = Observability(enabled=True)
    obs.tracer.max_spans = 6
    _invoke(obs, 1, handler=False)
    _invoke(obs, 2, handler=True)  # 7 spans never fit
    assert [s.attrs.get("request_id") for s in obs.tracer.spans()
            if s.parent_id is None] == [1]
    assert obs.tracer.dropped == 7


def test_deferred_spans_stay_readable_after_disable():
    obs = Observability(enabled=True)
    _invoke(obs, 1, handler=True)
    obs.disable()
    _invoke(obs, 2, handler=True)
    spans = obs.tracer.spans()
    assert len(spans) == len(obs.tracer) == 7
    assert obs.tracer.find("ems.handler:EALLOC")
    assert obs._pending_ems == {}
