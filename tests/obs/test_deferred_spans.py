"""Deferred span trees export exactly what eager recording exports.

The probes record one compact record per invocation and the tracer
expands it into :class:`Span` objects only when a reader asks. The
reference here is the eager probe code the deferral replaced: every
span is built the moment the invocation completes, one record per
invocation, evicted whole from the same ``max_spans`` ring. Both run
the same seeded serve workload side by side, and their Chrome exports
must match byte for byte at every read point: mid-run, after
``clear()``, after ``disable()`` and once the ring has overflowed.
"""

from __future__ import annotations

import collections
import contextlib
import json

import pytest

from repro.common.constants import CS_CORE_FREQ_HZ, EMS_CORE_FREQ_HZ
from repro.cs.emcall import RetryPolicy
from repro.eval import serve
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import probes
from repro.obs.slo import BATCH_OPERATION
from repro.obs.trace import Span, Tracer


class EagerTracer(Tracer):
    """Builds each span when it is recorded; a ``record()`` is one ring entry."""

    def __init__(self, enabled: bool = False,
                 max_spans: int = 1_000_000) -> None:
        super().__init__(enabled=enabled, max_spans=max_spans)
        self.records: collections.deque[list[Span]] = collections.deque()
        self.retained = 0
        self.group: list[Span] | None = None

    def add_span(self, name, category, start_cycle, duration_cycles,
                 parent=None, track="cs0", **attrs):
        if not self.enabled:
            return None
        span = Span(self._next_id, parent.span_id if parent else None,
                    name, category, start_cycle, duration_cycles, track,
                    attrs)
        self._next_id += 1
        if self.group is not None:
            self.group.append(span)
        else:
            self.keep([span])
        return span

    @contextlib.contextmanager
    def record(self):
        self.group = []
        try:
            yield
        finally:
            group, self.group = self.group, None
            if group:
                self.keep(group)

    def keep(self, group: list[Span]) -> None:
        if len(group) > self.max_spans:
            self.dropped += len(group)
            return
        self.records.append(group)
        self.retained += len(group)
        while self.retained > self.max_spans:
            evicted = self.records.popleft()
            self.retained -= len(evicted)
            self.dropped += len(evicted)

    def spans(self):
        return [span for group in self.records for span in group]

    def __len__(self):
        return self.retained

    def clear(self):
        self.records.clear()
        self.retained = 0
        self.clock = 0.0
        self.dropped = 0


class EagerObservability(probes.Observability):
    """The probe facade with the eager span-building invocation probes."""

    def __init__(self, enabled: bool = False) -> None:
        super().__init__(enabled=enabled)
        self.tracer = EagerTracer(enabled=enabled)

    def record_invocation(self, *, primitive, status, request_id,
                          cs_cycles, dispatch_cycles, transfer_cycles,
                          service_cycles, jitter_cycles, polls, enclave_id,
                          core_id, attempts=1):
        self._invocations.labels(primitive, status).inc()
        self._latency.labels(primitive).observe(cs_cycles)
        self._polls.observe(polls)
        self.slo.record(primitive, cs_cycles)
        self.attribution.record_invocation(enclave_id, cs_cycles)
        self.flightrec.record(
            "invocation", self.tracer.clock, primitive=primitive,
            status=status, request_id=request_id, cs_cycles=cs_cycles,
            enclave_id=enclave_id, attempts=attempts)
        tracer = self.tracer
        if not tracer.enabled:
            self._pending_ems.pop(request_id, None)
            return
        track = f"cs{core_id}"
        t0 = tracer.clock
        extra = {"attempts": attempts} if attempts > 1 else {}
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        service_cs = int(service_cycles * ems_to_cs)
        with tracer.record():
            root = tracer.add_span(
                primitive, "primitive", t0, cs_cycles, track=track,
                request_id=request_id, status=status,
                enclave_id=enclave_id, **extra)
            cursor = t0
            tracer.add_span("emcall.gate", "emcall", cursor,
                            dispatch_cycles, parent=root, track=track,
                            primitive=primitive)
            cursor += dispatch_cycles
            tracer.add_span("mailbox.request", "mailbox", cursor,
                            transfer_cycles, parent=root, track=track,
                            request_id=request_id)
            cursor += transfer_cycles
            service = tracer.add_span(
                "ems.service", "ems", cursor, service_cs, parent=root,
                track=track, ems_cycles=service_cycles)
            detail = self._pending_ems.pop(request_id, None)
            if detail is not None:
                tracer.add_span(
                    f"ems.handler:{detail['primitive']}", "ems", cursor,
                    service_cs, parent=service, track=track, **{
                        k: v for k, v in detail.items() if k != "primitive"})
            cursor += service_cs
            tracer.add_span("mailbox.response", "mailbox", cursor,
                            transfer_cycles, parent=root, track=track,
                            request_id=request_id)
            cursor += transfer_cycles
            tail = cs_cycles - (cursor - t0)
            tracer.add_span("emcall.poll", "emcall", cursor, tail,
                            parent=root, track=track, polls=polls,
                            jitter_cycles=jitter_cycles)
        tracer.advance(cs_cycles)

    def record_batch_invocation(self, *, primitives, statuses, cs_cycles,
                                dispatch_cycles, transfer_cycles,
                                service_cycles, request_ids, jitter_cycles,
                                polls, enclave_id, core_id, attempts=1):
        n = len(primitives)
        self._batch_size.observe(n)
        self._batch_latency.observe(cs_cycles)
        self._polls.observe(polls)
        self.slo.record(BATCH_OPERATION, cs_cycles)
        self.attribution.record_invocation(enclave_id, cs_cycles, count=n)
        self.flightrec.record(
            "batch", self.tracer.clock, batch_size=n, cs_cycles=cs_cycles,
            enclave_id=enclave_id, attempts=attempts,
            statuses=sorted(set(statuses)))
        share, remainder = divmod(cs_cycles, n)
        for index, (primitive, status) in enumerate(zip(primitives, statuses)):
            self._invocations.labels(primitive, status).inc()
            amortized = share + (1 if index < remainder else 0)
            self._latency.labels(primitive).observe(amortized)
            self.slo.record(primitive, amortized)
        tracer = self.tracer
        if not tracer.enabled:
            for request_id in request_ids:
                self._pending_ems.pop(request_id, None)
            return
        track = f"cs{core_id}"
        t0 = tracer.clock
        extra = {"attempts": attempts} if attempts > 1 else {}
        ems_to_cs = CS_CORE_FREQ_HZ / EMS_CORE_FREQ_HZ
        with tracer.record():
            root = tracer.add_span(
                f"emcall.batch[{n}]", "primitive", t0, cs_cycles,
                track=track, batch_size=n, enclave_id=enclave_id, **extra)
            cursor = t0
            tracer.add_span("emcall.gate", "emcall", cursor,
                            dispatch_cycles, parent=root, track=track,
                            batch_size=n)
            cursor += dispatch_cycles
            tracer.add_span("mailbox.request", "mailbox", cursor,
                            transfer_cycles, parent=root, track=track,
                            batch_size=n)
            cursor += transfer_cycles
            for primitive, request_id, ems_cycles in zip(
                    primitives, request_ids, service_cycles):
                service_cs = int(ems_cycles * ems_to_cs)
                span = tracer.add_span(
                    f"ems.service:{primitive}", "ems", cursor, service_cs,
                    parent=root, track=track, request_id=request_id,
                    ems_cycles=ems_cycles)
                detail = self._pending_ems.pop(request_id, None)
                if detail is not None:
                    tracer.add_span(
                        f"ems.handler:{detail['primitive']}", "ems", cursor,
                        service_cs, parent=span, track=track, **{
                            k: v for k, v in detail.items()
                            if k != "primitive"})
                cursor += service_cs
            tracer.add_span("mailbox.response", "mailbox", cursor,
                            transfer_cycles, parent=root, track=track,
                            batch_size=n)
            cursor += transfer_cycles
            tail = cs_cycles - (cursor - t0)
            tracer.add_span("emcall.poll", "emcall", cursor, tail,
                            parent=root, track=track, polls=polls,
                            jitter_cycles=jitter_cycles)
        tracer.advance(cs_cycles)


#: Weather that forces retries (``attempts > 1``) and interleaves
#: ``fault:`` spans with the invocation trees.
FAULTS = (
    FaultRule(point="mailbox.response.drop", probability=0.05),
    FaultRule(point="ems.handler.exception", probability=0.03),
)


def _serve_trace(monkeypatch, eager: bool, *, shards: int, seed: int,
                 ops: int, max_spans: int, faulted: bool,
                 actions: dict[int, str]) -> list[str]:
    """Run one seeded serve workload; return its Chrome export at every read."""
    build_platform = serve._build_platform
    platforms = []

    def build(cfg):
        with monkeypatch.context() as patch:
            if eager:
                patch.setattr(probes, "Observability", EagerObservability)
            tee = build_platform(cfg)
        tee.system.obs.tracer.max_spans = max_spans
        if faulted:
            tee.system.enable_fault_injection(
                FaultPlan.build(list(FAULTS), seed=seed))
            tee.system.emcall.retry_policy = RetryPolicy(degrade=True)
        platforms.append(tee)
        return tee

    exports: list[str] = []

    def on_step(step, tee):
        obs = tee.system.obs
        action = actions.get(step)
        if action == "read":
            exports.append(obs.tracer.export_chrome_json())
            exports.append(json.dumps([
                (s.span_id, s.name) for s in obs.tracer.find("ems.")]))
        elif action == "clear":
            obs.tracer.clear()
        elif action == "disable":
            obs.disable()
        elif action == "enable":
            obs.enable()

    monkeypatch.setattr(serve, "_build_platform", build)
    serve.run_serve(serve.ServeConfig(shards=shards, ops=ops, seed=seed),
                    on_step=on_step)
    obs = platforms[0].system.obs
    assert isinstance(obs.tracer, EagerTracer) is eager
    exports.append(obs.tracer.export_chrome_json())
    obs.disable()
    exports.append(obs.tracer.export_chrome_json())
    exports.append(str(len(obs.tracer)))
    return exports


SCENARIOS = {
    "clean": dict(max_spans=1_000_000, faulted=False,
                  actions={40: "read", 90: "read"}),
    "faulted": dict(max_spans=1_000_000, faulted=True,
                    actions={30: "read", 60: "clear", 100: "read"}),
    "disabled-midway": dict(max_spans=1_000_000, faulted=True,
                            actions={50: "disable", 70: "read",
                                     80: "enable", 110: "read"}),
    "ring": dict(max_spans=120, faulted=True,
                 actions={20: "read", 75: "read", 76: "clear",
                          130: "read"}),
}


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_deferred_export_matches_eager_reference(monkeypatch, shards,
                                                 scenario):
    params = SCENARIOS[scenario]
    kwargs = dict(shards=shards, seed=11 + shards, ops=150, **params)
    deferred = _serve_trace(monkeypatch, False, **kwargs)
    eager = _serve_trace(monkeypatch, True, **kwargs)
    assert len(deferred) == len(eager)
    for index, (got, want) in enumerate(zip(deferred, eager)):
        assert got == want, f"read {index} differs"


def test_reference_runs_exercise_every_record_shape(monkeypatch):
    """The comparison is only as strong as what the runs contain."""
    exports = _serve_trace(monkeypatch, False, shards=4, seed=15, ops=150,
                           max_spans=1_000_000, faulted=True, actions={})
    events = [e for e in json.loads(exports[0])["traceEvents"]
              if e["ph"] == "X"]
    names = {e["name"] for e in events}
    assert any(name.startswith("emcall.batch[") for name in names)
    assert any(name.startswith("ems.handler:") for name in names)
    assert any(name.startswith("fault:") for name in names)
    assert any(e["args"].get("attempts", 1) > 1 for e in events)
    # Scalar invocations with and without a handler span (a dropped
    # request never reaches a handler).
    assert "ems.service" in names


def test_ring_overflow_is_exercised(monkeypatch):
    exports = _serve_trace(monkeypatch, False, shards=1, seed=12, ops=150,
                           **SCENARIOS["ring"])
    dropped = [json.loads(e)["otherData"]["dropped_spans"]
               for e in exports if e.startswith("{")]
    assert max(dropped) > 0
