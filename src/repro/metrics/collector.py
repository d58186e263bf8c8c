"""A per-run metrics collector: named counters, series and samples.

Beyond the manual ``count``/``observe`` API, a collector can
subscribe to an instrumentation bus (:meth:`MetricsCollector.attach`)
and aggregate the typed events every layer publishes (see
:mod:`repro.obs`).  The same event-to-metric mapping is used live and
when replaying a JSONL trace (:func:`repro.obs.trace.replay_trace`),
so an offline replay reproduces a live run's :meth:`report` exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.obs import events as ev
from repro.obs.bus import EventBus, Stamped
from repro.sim import TimeSeries


class MetricsCollector:
    """Aggregates counters, samples and time series by name."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self._series: dict[str, TimeSeries] = {}
        #: ``(run id, gauge names)`` of a tick -> its readings' series,
        #: position for position.
        self._tick_series: dict[tuple, list[TimeSeries]] = {}
        self._samples: dict[str, list[float]] = defaultdict(list)
        self._buses: list[EventBus] = []

    # -- counters -----------------------------------------------------------

    def count(self, name: str, increment: float = 1.0) -> None:
        self.counters[name] += increment

    # -- samples -------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        self._samples[name].append(value)

    def samples(self, name: str) -> list[float]:
        return list(self._samples.get(name, []))

    # -- time series ------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        try:
            return self._series[name]
        except KeyError:
            raise KeyError(f"no series named {name!r}") from None

    def series_names(self, prefix: str = "") -> list[str]:
        """Recorded series names (optionally filtered by prefix), sorted."""
        return sorted(
            name for name in self._series if name.startswith(prefix)
        )

    def timelines(self, prefix: str = "") -> dict[str, list[tuple[float, float]]]:
        """``{name: [(t, v), ...]}`` for every series under ``prefix``.

        The flight recorder's gauges land here under ``gauge.*`` —
        this is the comparison surface for live-vs-replay parity and
        the payload the run registry persists.
        """
        return {
            name: list(self._series[name])
            for name in self.series_names(prefix)
        }

    def report(self) -> dict[str, object]:
        """A flat snapshot for printing or JSON dumping: the counters,
        then each sample list's ``.mean`` / ``.min`` / ``.max``.

        The mean is the streaming one (``mean += (v - mean) / n``), so
        a report is the same floats however the samples arrived.
        """
        out: dict[str, object] = dict(self.counters)
        for name, values in self._samples.items():
            mean, low, high = 0.0, math.inf, -math.inf
            for n, value in enumerate(values, 1):
                mean += (value - mean) / n
                low = min(low, value)
                high = max(high, value)
            out[f"{name}.mean"] = mean
            out[f"{name}.min"] = low
            out[f"{name}.max"] = high
        return out

    # -- event-bus subscription ----------------------------------------------

    def attach(self, bus: EventBus) -> "MetricsCollector":
        """Aggregate every event published on ``bus`` (see mapping below)."""
        bus.subscribe_all(self._on_event)
        self._buses.append(bus)
        return self

    def detach(self) -> None:
        """Stop listening to every attached bus.

        Idempotent by contract: calling it twice, or with no prior
        ``attach`` at all, is a no-op — teardown paths need no
        attach/detach bookkeeping of their own.
        """
        for bus in self._buses:
            bus.unsubscribe_all(self._on_event)
        self._buses.clear()

    def _on_event(self, stamped: Stamped) -> None:
        event = stamped.event
        if type(event) is ev.GaugeSample:
            # A tick's readings become one point each on per-gauge time
            # series keyed by the stamped sim time, so a replayed trace
            # reproduces the exact timelines.  The run id is part of
            # the series name: a multi-run trace replays each run's
            # gauges into its own (monotonic) series, exactly as the
            # per-run live collectors saw them.  A run's ticks share
            # one names tuple, so its series are resolved once.
            key = (stamped.run_id, event.gauges)
            tick_series = self._tick_series.get(key)
            if tick_series is None:
                tick_series = self._tick_series[key] = self._gauge_series(*key)
            time = stamped.time
            for series, value in zip(tick_series, event.values):
                series.record(time, value)
            return
        handler = _EVENT_METRICS.get(type(event))
        if handler is not None:
            handler(self, event)

    def _gauge_series(self, run_id: str, gauges: tuple) -> list[TimeSeries]:
        """The ``gauge.<run>.<name>`` series of each of ``gauges``,
        created on first sight."""
        prefix = f"gauge.{run_id}."
        all_series = self._series
        found = []
        for gauge in gauges:
            name = prefix + gauge
            series = all_series.get(name)
            if series is None:
                series = all_series[name] = TimeSeries(name)
            found.append(series)
        return found


# -- the event-to-metric mapping ---------------------------------------------
#
# One function per event type; counter names mirror the legacy ad-hoc
# per-module counters so the parity tests can assert equality (e.g.
# ``coordinator.ticks`` == StagingCoordinator.ticks).


def _on_process_failed(c: MetricsCollector, e: ev.ProcessFailed) -> None:
    c.count("sim.process_failures")


def _on_packet_dropped(c: MetricsCollector, e: ev.PacketDropped) -> None:
    c.count(f"net.drops.{e.reason}", e.count)


def _on_link_state(c: MetricsCollector, e: ev.LinkStateChanged) -> None:
    c.count("net.link_up" if e.up else "net.link_down")


def _on_link_rexmit(c: MetricsCollector, e: ev.LinkRetransmission) -> None:
    c.count("net.arq_retransmissions", e.retries)


def _on_segment_timeout(c: MetricsCollector, e: ev.SegmentTimeout) -> None:
    c.count("transport.timeouts")
    c.observe("transport.rto", e.rto)


def _on_segment_rexmit(c: MetricsCollector, e: ev.SegmentRetransmitted) -> None:
    c.count("transport.retransmissions", e.count)


def _on_session_migrated(c: MetricsCollector, e: ev.SessionMigrated) -> None:
    c.count("transport.migrations")


def _on_cache_hit(c: MetricsCollector, e: ev.CacheHit) -> None:
    c.count("cache.hits")


def _on_cache_miss(c: MetricsCollector, e: ev.CacheMiss) -> None:
    c.count("cache.misses")


def _on_cache_stored(c: MetricsCollector, e: ev.CacheStored) -> None:
    c.count("cache.insertions")
    c.count("cache.stored_bytes", e.size_bytes)


def _on_cache_evicted(c: MetricsCollector, e: ev.CacheEvicted) -> None:
    c.count("cache.evictions")
    c.count("cache.evicted_bytes", e.size_bytes)


def _on_coordinator_tick(c: MetricsCollector, e: ev.CoordinatorTick) -> None:
    c.count("coordinator.ticks")
    if e.offline:
        c.count("coordinator.offline_ticks")
    if e.decision:
        c.count("coordinator.decisions")


def _on_staging_signalled(c: MetricsCollector, e: ev.StagingSignalled) -> None:
    c.count("staging.signals")
    c.count("staging.chunks_signalled", e.count)
    if e.label == "re-signal":
        c.count("staging.resignals")


def _on_chunk_staged(c: MetricsCollector, e: ev.ChunkStaged) -> None:
    c.count("staging.responses")
    if e.staging_latency is not None:
        c.observe("staging.latency", e.staging_latency)
    if e.control_rtt is not None:
        c.observe("staging.control_rtt", e.control_rtt)


def _on_stale_response(c: MetricsCollector, e: ev.StaleStagingResponse) -> None:
    c.count("staging.stale_responses")


def _on_stage_request(c: MetricsCollector, e: ev.StageRequestReceived) -> None:
    c.count("vnf.requests")


def _on_vnf_staged(c: MetricsCollector, e: ev.VnfStageCompleted) -> None:
    c.count("vnf.staged")
    c.observe("vnf.staging_latency", e.latency)


def _on_vnf_failed(c: MetricsCollector, e: ev.VnfStageFailed) -> None:
    c.count("vnf.failures")


def _on_chunk_fetched(c: MetricsCollector, e: ev.ChunkFetched) -> None:
    c.count("chunks.fetched")
    c.count("chunks.from_edge" if e.from_edge else "chunks.from_origin")
    if e.fallback:
        c.count("chunks.fallbacks")
    c.observe("fetch.latency", e.latency)


def _on_handoff_started(c: MetricsCollector, e: ev.HandoffStarted) -> None:
    c.count("handoff.executed")


def _on_handoff_completed(c: MetricsCollector, e: ev.HandoffCompleted) -> None:
    c.observe("handoff.duration", e.duration)


def _on_handoff_deferred(c: MetricsCollector, e: ev.HandoffDeferred) -> None:
    c.count("handoff.deferred")


def _on_prestage(c: MetricsCollector, e: ev.PrestageSignalled) -> None:
    c.count("staging.prestage_signals")
    c.count("staging.prestaged_chunks", e.count)


def _on_coverage_gap(c: MetricsCollector, e: ev.CoverageGap) -> None:
    c.count("coverage.gaps")
    c.observe("coverage.gap_duration", e.duration)


def _on_encounter_ended(c: MetricsCollector, e: ev.EncounterEnded) -> None:
    c.count("coverage.encounters")
    c.observe("coverage.encounter_duration", e.duration)


_EVENT_METRICS = {
    ev.ProcessFailed: _on_process_failed,
    ev.PacketDropped: _on_packet_dropped,
    ev.LinkStateChanged: _on_link_state,
    ev.LinkRetransmission: _on_link_rexmit,
    ev.SegmentTimeout: _on_segment_timeout,
    ev.SegmentRetransmitted: _on_segment_rexmit,
    ev.SessionMigrated: _on_session_migrated,
    ev.CacheHit: _on_cache_hit,
    ev.CacheMiss: _on_cache_miss,
    ev.CacheStored: _on_cache_stored,
    ev.CacheEvicted: _on_cache_evicted,
    ev.CoordinatorTick: _on_coordinator_tick,
    ev.StagingSignalled: _on_staging_signalled,
    ev.ChunkStaged: _on_chunk_staged,
    ev.StaleStagingResponse: _on_stale_response,
    ev.StageRequestReceived: _on_stage_request,
    ev.VnfStageCompleted: _on_vnf_staged,
    ev.VnfStageFailed: _on_vnf_failed,
    ev.ChunkFetched: _on_chunk_fetched,
    ev.HandoffStarted: _on_handoff_started,
    ev.HandoffCompleted: _on_handoff_completed,
    ev.HandoffDeferred: _on_handoff_deferred,
    ev.PrestageSignalled: _on_prestage,
    ev.CoverageGap: _on_coverage_gap,
    ev.EncounterEnded: _on_encounter_ended,
}
