"""Instruments, families, and the registry's federation layer."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    QuantileHistogram,
    stats_asdict,
)


def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(MetricError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(10)
    g.inc(2.5)
    g.dec()
    assert g.value == 11.5


def test_histogram_buckets_are_log_spaced():
    h = Histogram(base=2.0)
    for v in (1, 2, 3, 4, 5, 1000):
        h.observe(v)
    bounds = [upper for upper, _ in h.buckets()]
    assert bounds == sorted(bounds)
    # 3 lands in the (2, 4] bucket, 1000 in (512, 1024].
    assert dict(h.buckets())[4.0] == 2
    assert dict(h.buckets())[1024.0] == 1
    assert h.count == 6 and h.min == 1 and h.max == 1000


def test_histogram_rejects_bad_input():
    h = Histogram()
    with pytest.raises(MetricError):
        h.observe(-1)
    with pytest.raises(MetricError):
        h.percentile(1.5)
    with pytest.raises(MetricError):
        Histogram(base=1.0)


def test_histogram_percentiles_bounded_error():
    h = Histogram(base=2.0)
    for v in range(1, 1001):
        h.observe(v)
    # Log buckets answer within a factor of base of the exact quantile.
    assert h.percentile(0.5) == pytest.approx(500, rel=1.0)
    assert h.percentile(0.99) == pytest.approx(990, rel=1.0)
    assert h.min <= h.percentile(0.01) <= h.percentile(0.99) <= h.max


def test_histogram_single_value_is_exact():
    h = Histogram()
    h.observe(350)
    for p in (0.0, 0.5, 0.99, 1.0):
        assert h.percentile(p) == 350
    assert h.mean == 350


def test_empty_histogram_percentile_is_zero():
    assert Histogram().percentile(0.5) == 0.0
    assert Histogram().mean == 0.0


def test_family_labels_positional_and_keyword():
    reg = MetricsRegistry()
    fam = reg.counter("hits", "test", ("primitive", "status"))
    fam.labels("EALLOC", "ok").inc()
    fam.labels(primitive="EALLOC", status="ok").inc()
    assert fam.labels("EALLOC", "ok").value == 2
    with pytest.raises(MetricError):
        fam.labels("EALLOC")  # wrong arity
    with pytest.raises(MetricError):
        fam.labels("x", status="y")  # mixed styles


def test_unlabelled_family_proxies_to_solo_child():
    reg = MetricsRegistry()
    reg.counter("events").inc(3)
    reg.gauge("depth").set(7)
    reg.histogram("lat").observe(42)
    assert reg.get("events").labels().value == 3
    assert reg.get("depth").labels().value == 7
    assert reg.get("lat").labels().count == 1
    with pytest.raises(MetricError):
        reg.counter("labelled", labelnames=("a",)).inc()


def test_bound_children_match_the_formatting_path():
    reg = MetricsRegistry()
    shard = reg.counter("shard_hits", "test", ("shard",))
    assert shard.labels(1) is shard.labels("1")
    assert shard.labels("1") is shard.labels(1)  # "1" is bound by now
    # Equal values that format differently never share a child.
    assert shard.labels(True) is not shard.labels(1)
    assert shard.labels(1.0) is not shard.labels(1)
    assert shard.labels([2]) is shard.labels("[2]")
    fam = reg.counter("hits", "test", ("primitive", "status"))
    child = fam.labels("EALLOC", "ok")
    assert fam.labels(primitive="EALLOC", status="ok") is child
    assert fam.labels(status="ok", primitive="EALLOC") is child
    assert fam.labels("EALLOC", "ok") is child
    for bad in ((), ("EALLOC",), ("EALLOC", "ok", "x")):
        with pytest.raises(MetricError):
            fam.labels(*bad)
    with pytest.raises(MetricError):
        fam.labels(primitive="EALLOC")
    for _ in range(2):  # still raises once children are bound
        with pytest.raises(MetricError):
            fam.inc()


def test_children_appear_only_when_first_used():
    reg = MetricsRegistry()
    solo = reg.histogram("lat")
    labelled = reg.counter("hits", labelnames=("op",))
    assert list(solo.samples()) == [] and list(labelled.samples()) == []
    solo.observe(3)
    solo.observe(5)
    assert [labels for labels, _ in solo.samples()] == [{}]
    assert solo.labels().count == 2


def _feed(reg: MetricsRegistry, positional: bool) -> None:
    inv = reg.counter("inv_total", "invocations", ("primitive", "status"))
    lat = reg.histogram("lat_cycles", "latency", ("primitive",))
    slo = reg.quantile_histogram("slo_cycles", "slo", ("operation",))
    depth = reg.gauge("depth", "queue depth", ("shard",))
    polls = reg.histogram("polls", "poll rounds")
    events = [("EALLOC", "ok", 700), ("EENTER", "ok", 512.0),
              ("EALLOC", "fail", 900), ("EATTEST", "ok", 0),
              ("EENTER", "ok", 512), ("EALLOC", "ok", 1e9)]
    for step in range(40):
        primitive, status, cycles = events[step % len(events)]
        if positional:
            inv.labels(primitive, status).inc()
            lat.labels(primitive).observe(cycles)
            slo.labels(primitive).observe(cycles + step)
            depth.labels(str(step % 3)).set(step)
        else:
            inv.labels(primitive=primitive, status=status).inc()
            lat.labels(primitive=primitive).observe(cycles)
            slo.labels(operation=primitive).observe(cycles + step)
            depth.labels(shard=str(step % 3)).set(step)
        polls.observe(step % 4)


def test_fast_path_export_matches_the_keyword_path():
    fast, slow = MetricsRegistry(), MetricsRegistry()
    _feed(fast, positional=True)
    _feed(slow, positional=False)
    assert render_prometheus(fast) == render_prometheus(slow)
    assert render_json(fast) == render_json(slow)


def test_lean_observe_keeps_builtin_min_max_ties():
    for cls in (Histogram, QuantileHistogram):
        hist = cls()
        for value in (5, 5.0, 3.0, 3, 9, 9.0):
            hist.observe(value)
        assert (hist.min, type(hist.min)) == (3.0, float)
        assert (hist.max, type(hist.max)) == (9, int)


def test_registration_is_idempotent_but_typed():
    reg = MetricsRegistry()
    first = reg.counter("x", "help", ("a",))
    assert reg.counter("x", "other help", ("a",)) is first
    with pytest.raises(MetricError):
        reg.gauge("x")  # kind mismatch
    with pytest.raises(MetricError):
        reg.counter("x", labelnames=("b",))  # label mismatch


def test_federated_snapshot_reads_live_sources():
    @dataclasses.dataclass
    class FakeStats:
        served: int = 0

    stats = FakeStats()
    reg = MetricsRegistry()
    reg.register_source("fake", lambda: stats_asdict(stats))
    assert reg.federated_snapshot() == {"fake": {"served": 0}}
    stats.served = 9
    # Pull-based: the snapshot tracks the dataclass, no copy is stored.
    assert reg.federated_snapshot() == {"fake": {"served": 9}}
    assert reg.source_names() == ["fake"]
    with pytest.raises(MetricError):
        reg.register_source("fake", lambda: {})
