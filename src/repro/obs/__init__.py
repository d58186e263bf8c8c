"""Cross-layer instrumentation: typed event bus, probe and tracing.

This package is the observability spine of the reproduction.  Every
layer — the simulation kernel, links, transports, XCache and the
SoftStage control plane — publishes typed events
(:mod:`repro.obs.events`) through its simulator's
:class:`~repro.obs.probe.Probe` onto an :class:`~repro.obs.bus.EventBus`.
Consumers subscribe by event type:

- :class:`repro.metrics.collector.MetricsCollector` aggregates events
  into counters/samples (``collector.attach(sim.probe.bus)``);
- :class:`~repro.obs.trace.TraceExporter` writes a JSONL trace that
  :func:`~repro.obs.trace.replay_trace` can turn back into an identical
  metrics report offline;
- the flight recorder (:mod:`repro.obs.flight`) samples state gauges
  into the event stream and audits it against conservation invariants;
- the run registry (:mod:`repro.obs.registry`) persists per-run
  summaries and gauge timelines for cross-run diffing;
- the lifecycle fold (:mod:`repro.obs.wide`) folds events and gauges
  once into causal spans (:mod:`repro.obs.spans`) and, as each span
  closes, one context-complete wide record per chunk, encounter, gap
  and handoff — identically live and offline;
- the telemetry hub (:mod:`repro.obs.stream`) fans gauge samples and
  wide events out to bounded, never-blocking subscriber queues;
- the HTTP service (:mod:`repro.obs.server`) exposes the registry,
  the ``/diff`` regression gate and a ``/live`` SSE stream;
- the terminal dashboard (:mod:`repro.obs.dashboard`) renders live
  gauge sparklines and a wide-event tail from either source.

With no subscribers attached the bus is zero-cost: publishers check
``probe.active`` (a plain attribute read) before constructing events.
"""

from repro.obs.bus import EventBus, Stamped
from repro.obs.probe import Probe
from repro.obs.trace import TraceExporter, read_trace, replay_trace
from repro.obs import events
from repro.obs.events import EVENT_TYPES, ObsEvent
from repro.obs.flight import (
    GaugeSampler,
    InvariantAuditor,
    InvariantViolation,
    InvariantViolationError,
    install_flight_recorder,
)
from repro.obs.registry import RunRecord, RunRegistry, diff_records
from repro.obs.spans import Span, render_summary, summarize_spans
from repro.obs.stream import GaugeFeed, TelemetryHub, TelemetrySubscription
from repro.obs.wide import (
    WIDE_SCHEMA_VERSION,
    WideEventBuilder,
    WideEventStream,
    WideEventWriter,
    build_spans,
    derive_wide,
    read_wide,
    wide_json,
)

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "GaugeFeed",
    "GaugeSampler",
    "InvariantAuditor",
    "InvariantViolation",
    "InvariantViolationError",
    "ObsEvent",
    "Probe",
    "RunRecord",
    "RunRegistry",
    "Span",
    "Stamped",
    "TelemetryHub",
    "TelemetrySubscription",
    "TraceExporter",
    "WIDE_SCHEMA_VERSION",
    "WideEventBuilder",
    "WideEventStream",
    "WideEventWriter",
    "build_spans",
    "derive_wide",
    "diff_records",
    "events",
    "install_flight_recorder",
    "read_trace",
    "read_wide",
    "render_summary",
    "replay_trace",
    "summarize_spans",
    "wide_json",
]
