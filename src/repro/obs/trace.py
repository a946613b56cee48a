"""Span tracer keyed on the model's cycle clock.

A :class:`Tracer` records the full lifecycle of each primitive as nested
spans on a virtual timeline measured in **CS-core cycles** — the same
unit the timing model reports. Probe points record spans with explicit
start/duration (the cycle model already knows both, so no wall-clock
sampling is ever involved): the per-invocation trees go through
:meth:`Tracer.add_deferred`, which keeps the probe arguments and builds
the spans only when the trace is read, and rare one-off spans through
:meth:`Tracer.add_span`. :meth:`Tracer.advance` moves the timeline cursor
forward after each root span.

The recorded timeline exports as Chrome ``trace_event`` JSON
(:meth:`export_chrome`): complete ``"X"`` events whose timestamps are
cycles converted to microseconds at the CS core frequency. Load the file
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``; events on
one track nest by time containment, so the SDK call -> EMCall gate ->
mailbox transfer -> EMS handler -> response poll decomposition reads as a
flame graph.

Out-of-band guarantee: the tracer is pure bookkeeping. It never draws
from the model RNG, never adds cycles to any modelled latency, and the
attacker-visible state of the system is identical with tracing on or off
(enforced by ``tests/obs/test_noninterference.py``).
"""

from __future__ import annotations

import collections
import dataclasses
import json
from typing import Any, Callable, Iterator

from repro.common.constants import CS_CORE_FREQ_HZ


@dataclasses.dataclass
class Span:
    """One timed phase of a primitive's lifecycle."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_cycle: float
    duration_cycles: float
    track: str = "cs0"
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def end_cycle(self) -> float:
        return self.start_cycle + self.duration_cycles


class Tracer:
    """Collects spans on a cycle-denominated timeline.

    Spans are kept as whole *records*, oldest first. A record is either
    one span from :meth:`add_span` or a deferred tree from
    :meth:`add_deferred`: the probe arguments plus a build function,
    expanded into :class:`Span` objects only when a reader asks
    (:meth:`spans`, :meth:`find`, :meth:`children_of`, the exports).
    Ids are reserved at record time, so the expanded trace is the one
    eager recording would have built.

    Retention is a ring of at most ``max_spans`` spans: a new record
    evicts the oldest whole records, and :attr:`dropped` counts every
    evicted span (a record larger than the whole ring is dropped on
    arrival and counted too).
    """

    def __init__(self, enabled: bool = False,
                 max_spans: int = 1_000_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        #: Expanded records (span lists), all older than ``_deferred``.
        self._built: collections.deque[list[Span]] = collections.deque()
        #: Unexpanded records: (span count, build, first id, build args).
        self._deferred: collections.deque[tuple] = collections.deque()
        self._retained = 0
        self._next_id = 1
        #: The timeline cursor, in CS cycles. Root spans begin here.
        self.clock = 0.0
        #: Spans evicted from the ring or too large to keep.
        self.dropped = 0

    # -- recording ---------------------------------------------------------------

    def add_span(self, name: str, category: str, start_cycle: float,
                 duration_cycles: float, parent: Span | None = None,
                 track: str = "cs0", **attrs: Any) -> Span | None:
        """Record one span now, as its own record; None when disabled."""
        if not self.enabled:
            return None
        span = Span(span_id=self._next_id,
                    parent_id=parent.span_id if parent else None,
                    name=name, category=category,
                    start_cycle=start_cycle,
                    duration_cycles=duration_cycles,
                    track=track, attrs=attrs)
        self.add_deferred(1, _built_span, (span,))
        return span

    def add_deferred(self, nspans: int, build: Callable[..., list[Span]],
                     args: tuple) -> None:
        """Record a tree of ``nspans`` spans, built later on demand.

        ``build(first_id, *args)`` must return exactly ``nspans`` spans
        numbered from ``first_id``; the ids are reserved here.
        """
        if not self.enabled:
            return
        first_id = self._next_id
        self._next_id = first_id + nspans
        if nspans > self.max_spans:
            self.dropped += nspans
            return
        self._deferred.append((nspans, build, first_id, args))
        self._retained += nspans
        if self._retained > self.max_spans:
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest whole records until the ring fits."""
        while self._retained > self.max_spans:
            if self._built:
                nspans = len(self._built.popleft())
            else:
                nspans = self._deferred.popleft()[0]
            self._retained -= nspans
            self.dropped += nspans

    def advance(self, cycles: float) -> None:
        """Move the timeline cursor past a completed root span."""
        if self.enabled:
            self.clock += cycles

    # -- inspection --------------------------------------------------------------

    def _expand(self) -> None:
        """Build every deferred record, oldest first."""
        deferred = self._deferred
        while deferred:
            _, build, first_id, args = deferred.popleft()
            self._built.append(build(first_id, *args))

    def spans(self) -> list[Span]:
        """A copy of every retained span, in recording order."""
        self._expand()
        return [span for record in self._built for span in record]

    def __len__(self) -> int:
        return self._retained

    def find(self, name_prefix: str = "", category: str | None = None) -> list[Span]:
        """Spans whose name starts with the prefix (and category, if given)."""
        return [s for s in self.spans()
                if s.name.startswith(name_prefix)
                and (category is None or s.category == category)]

    def children_of(self, span: Span) -> list[Span]:
        """Direct child spans of ``span``."""
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop all spans and rewind the timeline cursor."""
        self._built.clear()
        self._deferred.clear()
        self._retained = 0
        self.clock = 0.0
        self.dropped = 0

    # -- Chrome trace_event export -------------------------------------------------

    def export_chrome(self, freq_hz: float = CS_CORE_FREQ_HZ) -> dict:
        """The ``trace_event`` document Perfetto / chrome://tracing load.

        Cycles convert to microseconds at ``freq_hz``; each distinct
        track becomes a thread with a ``thread_name`` metadata record.
        """
        us_per_cycle = 1e6 / freq_hz
        tracks: dict[str, int] = {}
        events: list[dict] = []
        for span in self.spans():
            tid = tracks.setdefault(span.track, len(tracks) + 1)
            args = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_cycle * us_per_cycle,
                "dur": span.duration_cycles * us_per_cycle,
                "pid": 1,
                "tid": tid,
                "args": args,
            })
        metadata = [{
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": track},
        } for track, tid in tracks.items()]
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "exporter": "repro.obs.trace",
                "clock": "cs-cycles",
                "cs_freq_hz": freq_hz,
                "dropped_spans": self.dropped,
            },
        }

    def export_chrome_json(self, freq_hz: float = CS_CORE_FREQ_HZ) -> str:
        """The trace_event document serialized to a JSON string."""
        return json.dumps(self.export_chrome(freq_hz), indent=1)

    def write_chrome_json(self, path: str,
                          freq_hz: float = CS_CORE_FREQ_HZ) -> None:
        """Write the trace_event JSON to ``path`` (Perfetto-loadable)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_chrome_json(freq_hz))


def _built_span(first_id: int, span: Span) -> list[Span]:
    """The build function of an :meth:`Tracer.add_span` record."""
    del first_id
    return [span]


def walk_roots(spans: list[Span]) -> Iterator[Span]:
    """Yield the root spans (no parent) in timeline order."""
    for span in sorted(spans, key=lambda s: (s.start_cycle, s.span_id)):
        if span.parent_id is None:
            yield span
