"""The lifecycle fold and its wide events: one record per unit of work.

The event stream (DESIGN.md §7) is narrow — many small happenings per
chunk, scattered across layers.  Debugging a staging decision ("why did
this chunk fall back to the origin?  how much lead did the coordinator
have when it was delivered?") means joining signals, VNF completions,
cache stores, gauge samples and the fetch itself.  This module folds
that join *once*, into **wide events**: one flat JSON record per chunk
lifecycle (requested → signalled → staged → delivered, with the policy,
the current network, the staging lead at delivery and the per-phase
timings in the same record), plus one record per encounter, coverage
gap and handoff, and a per-run summary.

One fold, two views
-------------------

A chunk's lifecycle (signalled → stage request → VNF staged → ready →
cached → fetched, across disconnections and handoffs) is one state
machine, so it is folded once: :class:`WideEventBuilder` keeps the
:class:`~repro.obs.spans.Span` list (phase marks + attrs) plus the
context a record needs beyond its own span (latest gauges, known gap
intervals, the current network, run totals).  The *span view* is that
list (:attr:`WideEventBuilder.spans`, :func:`build_spans`); the *wide
view* is a projection of each span at the moment it closes, handed to
the sinks at that stream position.  DESIGN.md §8 tabulates which event
sets which span mark and which record field.

The builder is a pure, deterministic fold over the stamped event
sequence, so deriving either view *offline* from a recorded JSONL trace
(``python -m repro trace wide`` / ``trace spans``) produces
**byte-identical** output to what a live run emitted (asserted by the
parity tests and the CI telemetry smoke gate).

Schema and forward compatibility
--------------------------------

Every record carries ``"schema": WIDE_SCHEMA_VERSION``.  The
compatibility rule matches :func:`repro.obs.trace.read_trace`: readers
must tolerate (and, when rewriting, preserve) unknown keys, so old
consumers keep working as the schema grows.  :func:`read_wide` returns
plain dicts and therefore preserves unknown keys by construction.

Records serialize through :func:`wide_json` (sorted keys, compact
separators) — the single canonical form both the live and offline
paths share, which is what makes byte-parity achievable.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import IO, Callable, Iterable, Optional, Union

from repro.obs import events as ev
from repro.obs.bus import EventBus, Stamped
from repro.obs.jsonl import JsonlSink, read_records
from repro.obs.spans import CHUNK, ENCOUNTER, GAP, HANDOFF, Span, overlap

#: Bump when record fields change shape (adding keys is *not* a bump:
#: unknown keys are ignored-and-preserved by every reader).
WIDE_SCHEMA_VERSION = 1

#: A wide-event consumer: called once per finished record.
WideSink = Callable[[dict], None]

#: The flight-recorder gauges whose latest sample records carry.
_LEAD = "staging.lead_bytes"
_PROGRESS = "client.progress_bytes"
_CONNECTED = "client.connected"


def wide_json(record: dict) -> str:
    """The canonical serialization: compact, sorted keys."""
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def run_id_for(system: str, seed: int, policy: Optional[str] = None) -> str:
    """The run identity ``{system}[-{policy}]-seed{N}``.

    The one place the scheme is written down: the runner's default id,
    a sweep summary's registry key and a traced sweep's per-point ids
    all come from here, and :func:`policy_from_run_id` inverts it.
    """
    if policy:
        return f"{system}-{policy}-seed{seed}"
    return f"{system}-seed{seed}"


def policy_from_run_id(run_id: str) -> str:
    """The policy name embedded in a ``{system}[-{policy}]-seed{N}`` id.

    Derived from the run id (not passed out-of-band) so the live and
    offline folds see identical inputs: ``"softstage-rich-seed0"`` →
    ``"rich"``, ``"softstage-seed0"`` → ``""``.  Ids that don't follow
    the runner's naming scheme yield ``""``.
    """
    parts = run_id.split("-")
    if len(parts) >= 3 and parts[-1].startswith("seed"):
        return "-".join(parts[1:-1])
    return ""


class WideEventWriter(JsonlSink):
    """JSONL sink for wide events (one canonical record per line)."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        super().__init__(path_or_file)
        self.records_written = 0

    def write(self, record: dict) -> None:
        self._fh.write(wide_json(record))
        self._fh.write("\n")
        self.records_written += 1


#: Yields a wide-event file's records in file order, as plain dicts (so
#: keys a newer version wrote survive a filter-and-rewrite); torn lines
#: are skipped under the codec's rule.
read_wide = read_records


class WideEventBuilder:
    """Folds one run's stamped events into spans and wide-event records.

    Works identically live (``builder.attach(sim.probe.bus)``) and
    offline (``for s in read_trace(path): builder.feed(s)``); call
    :meth:`finish` when the run's stream ends to resolve span parent
    links, emit the run-summary record and detach.  :attr:`spans`
    holds every span in creation (= first-event) order; records go to
    every sink in ``sinks``, in emission order, and ``seq`` numbers
    them per run.

    Beyond the spans the fold keeps only what a record needs from
    outside its own span: the latest value of every sampled gauge (so
    ``lead_bytes`` / ``progress_bytes`` at delivery come straight from
    the flight recorder when it ran, and are ``None`` when it didn't),
    known coverage-gap intervals (for the ``masked_s`` gain
    attribution), the current network (last completed handoff target)
    and the run totals that are not a count over spans.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        sinks: Optional[list[WideSink]] = None,
    ) -> None:
        #: Only events stamped with this run id are folded; ``None``
        #: adopts the first run id seen (events from other runs are
        #: skipped, never mixed in).
        self.run_id = run_id
        self.sinks: list[WideSink] = list(sinks or [])
        self.spans: list[Span] = []
        self.events_seen = 0
        self.records_emitted = 0
        self._open_chunks: dict[str, Span] = {}
        self._open_handoffs: dict[str, Span] = {}
        self._gauge_latest: dict[str, float] = {}
        self._gaps: list[tuple[float, float]] = []
        self._network = ""
        self._encounters = 0
        self._handoffs_closed = 0
        self._chunks_this_encounter = 0
        self._last_time = 0.0
        self._dropped_packets = 0
        self._masked_total = 0.0
        self._gap_time = 0.0
        self._encounter_time = 0.0
        self._buses: list[EventBus] = []
        self._finished = False

    # -- wiring ------------------------------------------------------------

    def attach(self, bus: EventBus) -> "WideEventBuilder":
        """Subscribe to every event published on ``bus``."""
        bus.subscribe_all(self.feed)
        self._buses.append(bus)
        return self

    def detach(self) -> None:
        for bus in list(self._buses):
            bus.unsubscribe_all(self.feed)
        self._buses.clear()

    # -- the fold ----------------------------------------------------------

    def feed(self, stamped: Stamped) -> None:
        """Fold one stamped event into the lifecycle state machine."""
        if self.run_id is None:
            self.run_id = stamped.run_id
        elif stamped.run_id != self.run_id:
            return
        self.events_seen += 1
        self._last_time = stamped.time
        handler = _HANDLERS.get(type(stamped.event))
        if handler is not None:
            handler(self, stamped.time, stamped.event)

    def finish(self) -> int:
        """Detach, resolve span parents, emit the run-summary record.

        Idempotent; returns the number of records emitted.
        """
        if not self._finished:
            self._finished = True
            self.detach()
            self._assign_parents()
            chunks = [s for s in self.spans if s.kind == CHUNK]
            statuses = Counter((s.kind, s.status) for s in self.spans)

            def chunk_total(attr: str) -> int:
                return sum(s.attrs.get(attr, 0) for s in chunks)

            self._emit({
                "kind": "run",
                "t_end": self._last_time,
                "events": self.events_seen,
                "network": self._network,
                "chunks": len(chunks) - len(self._open_chunks),
                "chunks_edge": statuses[CHUNK, "edge"],
                "chunks_origin": statuses[CHUNK, "origin"],
                "chunks_fallback": statuses[CHUNK, "fallback"],
                "chunks_open": len(self._open_chunks),
                "re_signals": chunk_total("re_signals"),
                "stage_failures": chunk_total("stage_failures"),
                "stale_responses": chunk_total("stale_responses"),
                "encounters": self._encounters,
                "gaps": len(self._gaps),
                "gap_time_s": self._gap_time,
                "encounter_time_s": self._encounter_time,
                "handoffs_completed": statuses[HANDOFF, "completed"],
                "handoffs_deferred": statuses[HANDOFF, "deferred"],
                "dropped_packets": self._dropped_packets,
                "masked_total_s": self._masked_total,
                **self._gauges(_LEAD, _PROGRESS),
            })
        return self.records_emitted

    # -- span plumbing -----------------------------------------------------

    def _new_span(self, kind: str, key: str, start: float) -> Span:
        span = Span(
            span_id=len(self.spans) + 1,
            kind=kind,
            key=key,
            run_id=self.run_id or "",
            start=start,
        )
        self.spans.append(span)
        return span

    def _assign_parents(self) -> None:
        encounters = [s for s in self.spans if s.kind == ENCOUNTER]
        if not encounters:
            return
        for span in self.spans:
            if span.kind != CHUNK or span.end is None:
                continue
            for enc in encounters:
                if enc.start <= span.end <= enc.end:
                    span.parent_id = enc.span_id
                    break

    # -- record plumbing ---------------------------------------------------

    def _gauges(self, *gauges: str) -> dict:
        """Record fields for the latest sample of each named gauge.

        The field is the gauge's last name component; its value is
        ``None`` until the flight recorder has sampled that gauge.
        """
        latest = self._gauge_latest
        return {g.rpartition(".")[2]: latest.get(g) for g in gauges}

    def _emit(self, record: dict) -> None:
        record["schema"] = WIDE_SCHEMA_VERSION
        record["run"] = self.run_id or ""
        record["policy"] = policy_from_run_id(self.run_id or "")
        record["seq"] = self.records_emitted
        self.records_emitted += 1
        for sink in self.sinks:
            sink(record)


class WideEventStream:
    """Dispatches a (possibly multi-run) stamped stream to builders.

    Runs in a trace written by the demo/sweep drivers are *sequential*
    (one run finishes before the next starts), so the stream finishes
    the previous run's builder — emitting its run-summary record —
    the moment a new run id appears, exactly where a live pipeline
    sharing one output file would have emitted it.  That positional
    agreement is what makes ``repro trace wide`` byte-identical to a
    live ``--emit-wide`` file holding several runs.
    """

    def __init__(self, sinks: Optional[list[WideSink]] = None) -> None:
        self.sinks = list(sinks or [])
        self.builders: list[WideEventBuilder] = []
        self._current: Optional[WideEventBuilder] = None

    def feed(self, stamped: Stamped) -> None:
        current = self._current
        if current is None or stamped.run_id != current.run_id:
            if current is not None:
                current.finish()
            current = WideEventBuilder(
                run_id=stamped.run_id, sinks=self.sinks
            )
            self.builders.append(current)
            self._current = current
        current.feed(stamped)

    def finish(self) -> int:
        """Finish the in-progress builder; total records emitted."""
        if self._current is not None:
            self._current.finish()
            self._current = None
        return sum(b.records_emitted for b in self.builders)


def derive_wide(
    stampeds: Iterable[Stamped], run_id: Optional[str] = None
) -> list[dict]:
    """Offline derivation: stamped events → wide-event records.

    ``run_id`` restricts to one run; the default processes every run
    in stream order (sequential-run traces, see
    :class:`WideEventStream`).
    """
    records: list[dict] = []
    if run_id is not None:
        builder = WideEventBuilder(run_id=run_id, sinks=[records.append])
        for stamped in stampeds:
            builder.feed(stamped)
        builder.finish()
    else:
        stream = WideEventStream(sinks=[records.append])
        for stamped in stampeds:
            stream.feed(stamped)
        stream.finish()
    return records


def build_spans(stampeds: Iterable[Stamped], run_id: Optional[str] = None) -> list[Span]:
    """Derive one run's spans offline: the same fold, with no sinks."""
    builder = WideEventBuilder(run_id=run_id)
    for stamped in stampeds:
        builder.feed(stamped)
    builder.finish()
    return builder.spans


# -- per-event fold functions ------------------------------------------------
#
# Each handler updates the span being built; the three that close a
# span also project it into its wide record.  Chunk annotations only
# touch a span that is already open: origin-side publishes
# (``CacheStored`` at t=0) and responses for delivered chunks must not
# open lifecycles.


def _split_cids(cids: str) -> list[str]:
    return [c for c in cids.split(",") if c] if cids else []


def _bump(span: Span, attr: str) -> None:
    span.attrs[attr] = int(span.attrs.get(attr, 0)) + 1


def _on_gauge(b: WideEventBuilder, t: float, e: ev.GaugeSample) -> None:
    b._gauge_latest[e.gauge] = e.value


def _on_packet_dropped(b: WideEventBuilder, t: float, e: ev.PacketDropped) -> None:
    b._dropped_packets += e.count


def _on_staging_signalled(b: WideEventBuilder, t: float, e: ev.StagingSignalled) -> None:
    for cid in _split_cids(e.cids):
        span = b._open_chunks.get(cid)
        if span is None:
            span = b._open_chunks[cid] = b._new_span(CHUNK, cid, t)
            span.status = "staging"
            span.attrs["signal_label"] = e.label
            span.mark("signalled", t)
        else:
            span.mark("re-signalled", t)
            _bump(span, "re_signals")


def _on_stage_request(b: WideEventBuilder, t: float, e: ev.StageRequestReceived) -> None:
    for cid in _split_cids(e.cids):
        span = b._open_chunks.get(cid)
        if span is not None and span.phase_time("stage_request") is None:
            span.mark("stage_request", t)
            span.attrs["vnf"] = e.vnf


def _on_vnf_staged(b: WideEventBuilder, t: float, e: ev.VnfStageCompleted) -> None:
    span = b._open_chunks.get(e.cid)
    if span is not None:
        span.mark("staged", t)
        span.attrs["stage_latency"] = e.latency
        span.attrs["vnf"] = e.vnf


def _on_vnf_failed(b: WideEventBuilder, t: float, e: ev.VnfStageFailed) -> None:
    span = b._open_chunks.get(e.cid)
    if span is not None:
        span.mark("stage_failed", t)
        _bump(span, "stage_failures")


def _on_chunk_staged(b: WideEventBuilder, t: float, e: ev.ChunkStaged) -> None:
    span = b._open_chunks.get(e.cid)
    if span is not None:
        span.mark("ready", t)
        if e.staging_latency is not None:
            span.attrs["staging_latency"] = e.staging_latency
        if e.control_rtt is not None:
            span.attrs["control_rtt"] = e.control_rtt


def _on_stale_response(b: WideEventBuilder, t: float, e: ev.StaleStagingResponse) -> None:
    span = b._open_chunks.get(e.cid)
    if span is not None:
        span.mark("stale_response", t)
        _bump(span, "stale_responses")


def _on_cache_stored(b: WideEventBuilder, t: float, e: ev.CacheStored) -> None:
    span = b._open_chunks.get(e.cid)
    if span is not None:
        span.mark("cached", t)
        span.attrs["cache_store"] = e.store


def _on_chunk_fetched(b: WideEventBuilder, t: float, e: ev.ChunkFetched) -> None:
    fetch_start = t - e.latency
    span = b._open_chunks.pop(e.cid, None)
    if span is None:
        # Never signalled (e.g. direct fetch, no VNF): the span is the
        # fetch itself, opened retroactively at fetch start.
        span = b._new_span(CHUNK, e.cid, fetch_start)
    span.end = t
    span.mark("fetched", t)
    span.attrs["fetch_latency"] = e.latency
    span.attrs["fetch_start"] = fetch_start
    span.status = "edge" if e.from_edge else ("fallback" if e.fallback else "origin")
    b._chunks_this_encounter += 1
    # The record reads the *last* mark of a repeated phase (a restaged
    # chunk's final ``staged``/``ready``/``cached``), where the span
    # view's ``phase_time`` reads the first: ``dict`` keeps the last.
    last = dict(span.phases)
    attrs = span.attrs
    t_signalled = last.get("signalled")
    t_staged = last.get("staged")
    t_ready = last.get("ready")
    masked = overlap(span.start, t, b._gaps)
    b._masked_total += masked
    b._emit({
        "kind": "chunk",
        "cid": e.cid,
        "source": span.status,
        "network": b._network,
        "t_signalled": t_signalled,
        "t_stage_request": last.get("stage_request"),
        "t_staged": t_staged,
        "t_ready": t_ready,
        "t_cached": last.get("cached"),
        "t_fetch_start": fetch_start,
        "t_fetched": t,
        "fetch_latency": e.latency,
        "stage_latency": attrs.get("stage_latency"),
        "staging_latency": attrs.get("staging_latency"),
        "control_rtt": attrs.get("control_rtt"),
        "stage_wait_s": (
            t_staged - t_signalled
            if t_staged is not None and t_signalled is not None else None
        ),
        "ready_wait_s": (
            fetch_start - t_ready if t_ready is not None else None
        ),
        "masked_s": masked,
        "re_signals": attrs.get("re_signals", 0),
        "stage_failures": attrs.get("stage_failures", 0),
        "stale_responses": attrs.get("stale_responses", 0),
        "signal_label": attrs.get("signal_label"),
        "vnf": attrs.get("vnf"),
        "cache_store": attrs.get("cache_store"),
        **b._gauges(_LEAD, _PROGRESS, _CONNECTED),
    })


def _on_handoff_started(b: WideEventBuilder, t: float, e: ev.HandoffStarted) -> None:
    # A repeated start for one target supersedes the first, which stays
    # open (``joining``) in the span view.
    span = b._open_handoffs[e.target] = b._new_span(HANDOFF, e.target, t)
    span.status = "joining"
    span.mark("started", t)


def _close_handoff(
    b: WideEventBuilder, span: Span, t: float, status: str, duration: float
) -> None:
    """Records number handoffs (``ho{n}``) in the order they close."""
    span.end = t
    span.status = status
    span.mark(status, t)
    b._handoffs_closed += 1
    b._emit({
        "kind": "handoff",
        "key": f"ho{b._handoffs_closed}",
        "target": span.key,
        "from_network": b._network,
        "status": status,
        "t_start": span.start,
        "t_end": t,
        "duration_s": duration,
        **b._gauges(_CONNECTED, _LEAD),
    })


def _on_handoff_completed(b: WideEventBuilder, t: float, e: ev.HandoffCompleted) -> None:
    span = b._open_handoffs.pop(e.target, None)
    if span is None:
        span = b._new_span(HANDOFF, e.target, t - e.duration)
    span.attrs["join_duration"] = e.duration
    _close_handoff(b, span, t, "completed", e.duration)
    b._network = e.target


def _on_handoff_deferred(b: WideEventBuilder, t: float, e: ev.HandoffDeferred) -> None:
    _close_handoff(b, b._new_span(HANDOFF, e.target, t), t, "deferred", 0.0)


def _interval(
    b: WideEventBuilder, kind: str, key: str, t: float, duration: float,
    status: str, **extra: object,
) -> None:
    """An encounter/gap reported at its end: one closed span, one record."""
    span = b._new_span(kind, key, t - duration)
    span.end = t
    span.status = status
    b._emit({
        "kind": kind,
        "key": key,
        "network": b._network,
        "t_start": span.start,
        "t_end": t,
        "duration_s": duration,
        **extra,
        **b._gauges(_LEAD, _PROGRESS),
    })


def _on_encounter_ended(b: WideEventBuilder, t: float, e: ev.EncounterEnded) -> None:
    b._encounters += 1
    b._encounter_time += e.duration
    chunks = b._chunks_this_encounter
    b._chunks_this_encounter = 0
    _interval(
        b, ENCOUNTER, f"enc{b._encounters}", t, e.duration, "ended",
        chunks_delivered=chunks,
    )


def _on_coverage_gap(b: WideEventBuilder, t: float, e: ev.CoverageGap) -> None:
    b._gap_time += e.duration
    b._gaps.append((t - e.duration, t))
    _interval(b, GAP, f"gap{len(b._gaps)}", t, e.duration, "offline")


#: The one lifecycle table: event type -> fold step.
_HANDLERS = {
    ev.GaugeSample: _on_gauge,
    ev.PacketDropped: _on_packet_dropped,
    ev.StagingSignalled: _on_staging_signalled,
    ev.StageRequestReceived: _on_stage_request,
    ev.VnfStageCompleted: _on_vnf_staged,
    ev.VnfStageFailed: _on_vnf_failed,
    ev.ChunkStaged: _on_chunk_staged,
    ev.StaleStagingResponse: _on_stale_response,
    ev.CacheStored: _on_cache_stored,
    ev.ChunkFetched: _on_chunk_fetched,
    ev.HandoffStarted: _on_handoff_started,
    ev.HandoffCompleted: _on_handoff_completed,
    ev.HandoffDeferred: _on_handoff_deferred,
    ev.EncounterEnded: _on_encounter_ended,
    ev.CoverageGap: _on_coverage_gap,
}
