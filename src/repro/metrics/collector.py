"""A per-run metrics collector: named counters, samples and gauge ticks.

Beyond the manual ``count``/``observe`` API, a collector can
subscribe to an instrumentation bus (:meth:`MetricsCollector.attach`)
and aggregate the typed events every layer publishes (see
:mod:`repro.obs`).  The same event-to-metric mapping is used live and
when replaying a JSONL trace (:func:`repro.obs.trace.replay_trace`),
so an offline replay reproduces a live run's :meth:`report` exactly.

It keeps no second copy of a count an object (a store's hits, a
link direction's drops, the download's chunk tallies) or a wide record
(gap durations) holds; the invariant auditor checks the event stream
against those homes.  And it keeps only names something reads: the
end-to-end benchmark's counts and means (``benchmarks/e2e``) and
``sim.process_failures``, the one record of a crashed process.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.obs import events as ev
from repro.obs.bus import EventBus, Stamped


class MetricsCollector:
    """Aggregates counters, samples and gauge ticks by name."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self._samples: dict[str, list[float]] = defaultdict(list)
        #: Run id -> its gauge ticks as received: ``(time, names, values)``.
        self._ticks: dict[str, list[tuple]] = {}
        self._buses: list[EventBus] = []

    # -- counters -----------------------------------------------------------

    def count(self, name: str, increment: float = 1.0) -> None:
        self.counters[name] += increment

    # -- samples -------------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        self._samples[name].append(value)

    def samples(self, name: str) -> list[float]:
        return list(self._samples.get(name, []))

    # -- gauge timelines --------------------------------------------------------

    def timelines(self, prefix: str = "") -> dict[str, list[tuple[float, float]]]:
        """``{"gauge.<run>.<name>": [(t, v), ...]}`` under ``prefix``, in
        name order: each reading of each stored tick is one point.

        The comparison surface for live-vs-replay parity and the payload
        the run registry persists.
        """
        lines: dict[str, list[tuple[float, float]]] = {}
        for run_id, ticks in self._ticks.items():
            base = f"gauge.{run_id}."
            columns_of: dict[tuple, list] = {}
            for time, names, values in ticks:
                columns = columns_of.get(names)
                if columns is None:
                    columns = columns_of[names] = [
                        lines.setdefault(base + name, []) for name in names
                    ]
                for column, value in zip(columns, values):
                    column.append((time, value))
        return {
            name: lines[name] for name in sorted(lines) if name.startswith(prefix)
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
            # Kept whole under its run id, so a multi-run trace replays
            # each run's ticks apart, as the live collectors saw them.
            time = stamped.time
            ticks = self._ticks.get(stamped.run_id)
            if ticks is None:
                ticks = self._ticks[stamped.run_id] = []
            elif time < ticks[-1][0]:
                raise ValueError(
                    f"non-monotonic gauge tick time {time} < {ticks[-1][0]} "
                    f"in run {stamped.run_id!r}"
                )
            ticks.append((time, event.gauges, event.values))
            return
        handler = _EVENT_METRICS.get(type(event))
        if handler is not None:
            handler(self, event)


# -- the event-to-metric mapping ---------------------------------------------
#
# One function per event type.


def _on_process_failed(c: MetricsCollector, e: ev.ProcessFailed) -> None:
    c.count("sim.process_failures")


def _on_segment_timeout(c: MetricsCollector, e: ev.SegmentTimeout) -> None:
    c.count("transport.timeouts", e.count)


def _on_segment_rexmit(c: MetricsCollector, e: ev.SegmentRetransmitted) -> None:
    c.count("transport.retransmissions", e.count)


def _on_session_migrated(c: MetricsCollector, e: ev.SessionMigrated) -> None:
    c.count("transport.migrations")


def _on_coordinator_tick(c: MetricsCollector, e: ev.CoordinatorTick) -> None:
    c.count("coordinator.ticks", e.count)
    if e.decision:
        c.count("coordinator.decisions", e.decision)


def _on_staging_signalled(c: MetricsCollector, e: ev.StagingSignalled) -> None:
    c.count("staging.chunks_signalled", e.count)
    if e.label == "re-signal":
        c.count("staging.resignals")


def _on_chunk_staged(c: MetricsCollector, e: ev.ChunkStaged) -> None:
    if e.staging_latency is not None:
        c.observe("staging.latency", e.staging_latency)


def _on_stale_response(c: MetricsCollector, e: ev.StaleStagingResponse) -> None:
    c.count("staging.stale_responses")


def _on_chunk_fetched(c: MetricsCollector, e: ev.ChunkFetched) -> None:
    c.observe("fetch.latency", e.latency)


def _on_handoff_started(c: MetricsCollector, e: ev.HandoffStarted) -> None:
    c.count("handoff.executed")


def _on_handoff_completed(c: MetricsCollector, e: ev.HandoffCompleted) -> None:
    c.observe("handoff.duration", e.duration)


def _on_encounter_ended(c: MetricsCollector, e: ev.EncounterEnded) -> None:
    c.count("coverage.encounters")


_EVENT_METRICS = {
    ev.ProcessFailed: _on_process_failed,
    ev.SegmentTimeout: _on_segment_timeout,
    ev.SegmentRetransmitted: _on_segment_rexmit,
    ev.SessionMigrated: _on_session_migrated,
    ev.CoordinatorTick: _on_coordinator_tick,
    ev.StagingSignalled: _on_staging_signalled,
    ev.ChunkStaged: _on_chunk_staged,
    ev.StaleStagingResponse: _on_stale_response,
    ev.ChunkFetched: _on_chunk_fetched,
    ev.HandoffStarted: _on_handoff_started,
    ev.HandoffCompleted: _on_handoff_completed,
    ev.EncounterEnded: _on_encounter_ended,
}
