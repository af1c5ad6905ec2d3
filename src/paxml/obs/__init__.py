"""``paxml.obs`` — unified tracing, provenance and metrics.

Confluence makes the materialized limit ``[I]`` order-independent; this
package records the *history* that produced it.  Both engines emit typed
events into one process-wide bus (:mod:`paxml.obs.bus`); from the event
stream this package derives

* a **provenance index** answering "why is this node in the document?"
  (:mod:`paxml.obs.provenance`, surfaced as ``paxml explain``),
* a **unified metrics registry** absorbing ``perf.stats`` and the async
  runtime's counters behind one API (:mod:`paxml.obs.metrics`),
* three **exporters** — JSONL event logs, Chrome trace-event timelines
  for ``chrome://tracing``/Perfetto, and Prometheus text
  (:mod:`paxml.obs.exporters`, surfaced as ``paxml trace``).

Instrumentation is off by default and costs one module-attribute check
per site when off (see :mod:`paxml.obs.bus`).  Quickstart::

    from paxml import obs

    with obs.tracing() as trace:
        materialize(system)
    index = obs.ProvenanceIndex.from_events(trace.events)
    print(index.format_explain(some_node.uid))
    obs.write_jsonl(trace.events, "run.events.jsonl")
    obs.write_chrome_trace(trace.events, "run.trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from . import bus, events, trace
from .events import Event
from .exporters import (
    prometheus_text,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from .flight import FlightRecorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    REGISTRY,
    ScopedRegistry,
    absorb_rewrite,
    absorb_runtime,
    nearest_rank,
)
from .provenance import Derivation, ExplainEntry, ProvenanceIndex
from .slo import DEFAULT_SLOS, SLOBoard, SLOSpec
from .trace import Span, TraceContext

enable = bus.enable
disable = bus.disable
enabled = bus.enabled
subscribe = bus.subscribe
unsubscribe = bus.unsubscribe
emit = bus.emit


class TraceRecorder:
    """A subscriber that collects the event stream in order."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def provenance(self) -> ProvenanceIndex:
        return ProvenanceIndex.from_events(self.events)


@contextmanager
def tracing(recorder: Optional[TraceRecorder] = None
            ) -> Iterator[TraceRecorder]:
    """Enable the bus for the duration of the block and record events.

    Restores the previous enabled state and unsubscribes the recorder on
    exit, so nested/sequential uses compose.
    """
    if recorder is None:   # not `or`: an empty recorder is falsy (__len__)
        recorder = TraceRecorder()
    was_active = bus.ACTIVE
    bus.subscribe(recorder)
    bus.enable()
    try:
        yield recorder
    finally:
        bus.unsubscribe(recorder)
        if not was_active:
            bus.disable()


__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "Derivation",
    "Event",
    "ExplainEntry",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "ProvenanceIndex",
    "REGISTRY",
    "Registry",
    "SLOBoard",
    "SLOSpec",
    "ScopedRegistry",
    "Span",
    "TraceContext",
    "TraceRecorder",
    "absorb_rewrite",
    "absorb_runtime",
    "bus",
    "disable",
    "emit",
    "enable",
    "enabled",
    "events",
    "nearest_rank",
    "prometheus_text",
    "read_jsonl",
    "subscribe",
    "to_chrome_trace",
    "trace",
    "tracing",
    "unsubscribe",
    "write_chrome_trace",
    "write_jsonl",
]
