"""Running one experiment: build scenario, run download, collect metrics.

Pass ``instrument=True`` (or a ``trace_path``) to attach the
cross-layer instrumentation for free: a
:class:`~repro.metrics.collector.MetricsCollector` subscribed to the
scenario simulator's event bus, and optionally a JSONL
:class:`~repro.obs.trace.TraceExporter` whose output
:func:`~repro.obs.trace.replay_trace` turns back into an identical
metrics report offline.

Each measurement lands in one store: counters and samples in the
collector, gauge samples (``gauges=True``) as the collector's
timelines, chunk lifecycles as wide records, and — with
``sketches=True`` — those records' phase latencies as sketches, folded
by a sink of the one wide-event builder rather than by a subscriber of
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Optional, Union

from repro.core.client import DownloadResult, MobileClient
from repro.core.handoff import HandoffPolicy
from repro.core.policy import StagingPolicy, make_policy, policy_name
from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario, system_class
from repro.metrics.collector import MetricsCollector
from repro.mobility.coverage import Coverage
from repro.net.link import Link
from repro.obs.events import PacketDropped, SegmentRetransmitted
from repro.obs.flight import (
    GaugeSampler,
    InvariantAuditor,
    install_flight_recorder,
)
from repro.obs.sketch import SketchRecorder
from repro.obs.spans import Span
from repro.obs.stream import GaugeFeed, TelemetryHub
from repro.obs.trace import TraceExporter
from repro.obs.probe import Probe
from repro.obs.wide import WideEventBuilder, WideEventWriter, run_id_for
from repro.sim.profiler import SimProfiler
from repro.transport.reliable import TransportEndpoint


@dataclass
class ExperimentResult:
    """One (system, parameter-point, seed) measurement."""

    system: str
    seed: int
    download: DownloadResult
    #: Simulated seconds to finish (or reach the deadline).
    download_time: float
    #: The run identity stamped on every trace event of this run.
    run_id: str = ""
    #: Registry name of the staging policy driving the run ("" = the
    #: system's built-in behaviour, i.e. reactive Eq. 1 for softstage).
    policy: str = ""
    #: Bus-fed collector (only when the run was instrumented).
    metrics: Optional[MetricsCollector] = field(default=None, repr=False)
    #: JSONL trace location (only when ``trace_path`` was a path).
    trace_path: Optional[str] = None
    #: Causal spans derived live during the run (``spans=True``).
    spans: Optional[list[Span]] = field(default=None, repr=False)
    #: The kernel profiler, still queryable (``profile=True``).
    profile: Optional[SimProfiler] = field(default=None, repr=False)
    #: The flight-recorder sampler (``gauges=True``).
    sampler: Optional[GaugeSampler] = field(default=None, repr=False)
    #: The invariant auditor, already checked at run end (``audit=True``).
    auditor: Optional[InvariantAuditor] = field(default=None, repr=False)
    #: Wide-event records emitted live (``wide=``/``hub=``/``sketches=``
    #: set).
    wide_records: Optional[list[dict]] = field(default=None, repr=False)
    #: Per-phase sketches of the wide events (``sketches=True``);
    #: ``.to_json()`` serializes for the registry.
    sketches: Optional[SketchRecorder] = field(default=None, repr=False)

    @property
    def throughput_bps(self) -> float:
        return self.download.throughput_bps


def publish_run_totals(
    probe: Probe, links: Iterable[Link], endpoints: Iterable[TransportEndpoint]
) -> None:
    """Publish what the run's objects counted as one event per total.

    In ``links`` order, forward before backward, each direction's drops
    (loss, queue and down summed); then, in ``endpoints`` order, each
    sender session's retransmissions.  Only non-zero totals are
    published, so a replayed trace rebuilds exactly what the live
    collector and fold hold.  ARQ retries are not published: the
    wireless direction's ``retransmissions`` is their one record.
    """
    emit = probe.emit
    for link in links:
        for direction in (link.forward, link.backward):
            stats = direction.stats
            count = stats.dropped_loss + stats.dropped_queue + stats.dropped_down
            if count:
                emit(PacketDropped(link=direction.source.name, count=count))
    for endpoint in endpoints:
        for session, count in endpoint.retransmission_totals().items():
            emit(SegmentRetransmitted(session=session, count=count))


def object_totals(
    scenario: TestbedScenario, client: MobileClient
) -> dict[str, tuple[str, int]]:
    """What the run's objects counted of each event type they emit, for
    :meth:`InvariantAuditor.check_object_totals`.  Only a SoftStage
    client has a coordinator, a tracker and a Chunk Manager."""
    stores = [edge.store for edge in scenario.edges]
    vnfs = [edge.vnf for edge in scenario.edges if edge.vnf is not None]
    totals = {
        "CacheHit": ("Σ store.hits", sum(s.hits for s in stores)),
        "CacheEvicted": ("Σ store.evictions", sum(s.evictions for s in stores)),
        "VnfStageCompleted": ("Σ vnf.chunks_staged",
                              sum(v.chunks_staged for v in vnfs)),
        "VnfStageFailed": ("Σ vnf.stage_failures",
                           sum(v.stage_failures for v in vnfs)),
        "HandoffStarted": ("handoff_manager.handoffs",
                           client.handoff_manager.handoffs),
    }
    manager = getattr(client, "manager", None)
    if manager is not None:
        tracker, chunks = manager.tracker, manager.chunk_manager
        totals["CoordinatorTick"] = (
            "coordinator.ticks", manager.coordinator.ticks)
        totals["StagingSignalled"] = (
            "tracker.signals_sent", tracker.signals_sent)
        totals["StaleStagingResponse"] = (
            "tracker.stale_responses", tracker.stale_responses)
        totals["ChunkFetched"] = (
            "chunks_from_edge + chunks_from_origin",
            chunks.chunks_from_edge + chunks.chunks_from_origin)
    return totals


def run_download(
    system: str,
    params: Optional[MicrobenchParams] = None,
    seed: int = 0,
    coverage: Optional[Coverage] = None,
    deadline: Optional[float] = None,
    handoff_policy: Optional[HandoffPolicy] = None,
    with_vnf: bool = True,
    num_edges: int = 2,
    instrument: bool = False,
    trace_path: Optional[Union[str, IO[str]]] = None,
    spans: bool = False,
    profile: bool = False,
    gauges: bool = False,
    audit: bool = False,
    run_id: Optional[str] = None,
    policy: Optional[Union[str, StagingPolicy]] = None,
    hub: Optional[TelemetryHub] = None,
    wide: Optional[Union[str, IO[str], WideEventWriter]] = None,
    sketches: bool = False,
) -> ExperimentResult:
    """Build a fresh testbed and run one full download.

    ``system`` is ``"softstage"``, ``"xftp"`` or ``"endtoend"`` (the
    host-based single-stream baseline, which forces single-chunk
    publishing).

    ``policy`` (softstage only) selects the staging policy: a registry
    name (``"reactive"``, ``"rich"``, ``"mobility"``, ``"predictive"``)
    or a :class:`~repro.core.policy.StagingPolicy` instance.  ``None``
    keeps the default reactive Eq. 1 behaviour and the historical
    ``"{system}-seed{seed}"`` run identity; a named policy extends it
    to ``"{system}-{policy}-seed{seed}"``.

    ``instrument=True`` subscribes a :class:`MetricsCollector` to the
    run's event bus and returns it on the result; ``trace_path``
    additionally writes every event as JSONL (and implies
    ``instrument=True``) — pass an open file object instead of a path
    to append several runs into one multi-run trace.  ``spans=True``
    attaches the live lifecycle fold
    (:class:`~repro.obs.wide.WideEventBuilder`) and returns its
    finished spans; ``profile=True`` installs a
    :class:`~repro.sim.profiler.SimProfiler` on the kernel.

    ``gauges=True`` installs the flight recorder (standard testbed
    gauge set; implies ``instrument=True`` so the timelines land in
    the collector).
    ``audit=True`` attaches a strict :class:`InvariantAuditor` to the
    bus and, when the run ends, checks its event books against the
    objects' own counts (:func:`object_totals`); the audited run raises
    :class:`~repro.obs.flight.InvariantViolationError` at the first
    conservation violation.  Both are off by default and cost nothing
    when off.

    ``wide`` (a path, open file or :class:`WideEventWriter`) makes the
    same fold write one wide event per chunk/encounter/gap/handoff as
    JSONL — byte-identical to what ``repro trace wide`` derives from
    this run's trace offline.  However many of ``spans``, ``wide``,
    ``hub`` and ``sketches`` are set, one fold subscribes.
    ``sketches=True`` hands the fold's records to a
    :class:`~repro.obs.sketch.SketchRecorder` sink, which folds their
    phase latencies into per-phase sketches returned on the result;
    it subscribes to nothing itself.  Gauge samples are not sketched:
    with ``gauges=True`` their timelines land in the collector.

    ``hub`` fans the run's live telemetry out to a
    :class:`~repro.obs.stream.TelemetryHub`: gauge samples (when
    ``gauges=True``), wide events, and ``run`` markers — ``started``,
    then ``finished`` or, when the run raises, ``failed`` with the
    exception type.  Hub delivery never blocks — slow subscribers drop (with
    counters) instead of perturbing the run, so fixed-seed results
    stay bit-identical with subscribers attached.

    Every run gets a distinct identity — ``run_id`` or the derived
    ``"{system}-seed{seed}"`` — stamped on each trace event, so runs
    in the same file (or from different invocations) can be told
    apart and diffed.
    """
    system_class(system)  # reject an unknown name before building anything
    if policy is not None and system != "softstage":
        raise ConfigurationError(
            f"staging policies only apply to the softstage system, not {system!r}"
        )
    if system == "endtoend":
        if deadline is not None:
            raise ConfigurationError(
                "the endtoend baseline streams one session; deadlines "
                "are not supported"
            )
        # The end-to-end baseline is a single uninterrupted stream:
        # publish the whole object as one chunk.
        params = params or MicrobenchParams()
        params = params.with_(chunk_size=params.file_size)
    scenario = TestbedScenario(
        params=params,
        seed=seed,
        num_edges=num_edges,
        coverage=coverage,
        with_vnf=with_vnf,
    )
    staging_policy: Optional[StagingPolicy] = None
    if isinstance(policy, str):
        staging_policy = make_policy(policy, scenario)
    elif policy is not None:
        staging_policy = policy
    pname = policy_name(staging_policy)
    if run_id is None:
        run_id = run_id_for(system, seed, pname)
    scenario.sim.probe.run_id = run_id
    bus = scenario.sim.probe.bus
    #: How to undo each attachment made below; run in reverse in
    #: ``finally`` so a raising run leaves nothing subscribed.
    teardowns: list[Callable[[], None]] = []
    collector = exporter = fold = profiler = sampler = auditor = None
    recorder = SketchRecorder() if sketches else None
    wide_records: Optional[list[dict]] = None
    run_marker = {"run": run_id, "system": system, "policy": pname, "seed": seed}
    try:
        if instrument or trace_path is not None or gauges:
            collector = MetricsCollector().attach(bus)
            if trace_path is not None:
                exporter = TraceExporter(trace_path).attach(bus)
                teardowns.append(exporter.close)
        if profile:
            profiler = SimProfiler(scenario.sim).install()
            teardowns.append(profiler.uninstall)
        if audit:
            auditor = InvariantAuditor(strict=True).attach(bus)
            teardowns.append(auditor.detach)
        wants_records = wide is not None or hub is not None or sketches
        if spans or wants_records:
            sinks = []
            if wants_records:
                wide_records = []
                sinks.append(wide_records.append)
            if recorder is not None:
                sinks.append(recorder.feed_wide)
            if wide is not None:
                if isinstance(wide, WideEventWriter):
                    writer = wide  # the caller's, and theirs to close
                else:
                    writer = WideEventWriter(wide)
                    if writer.path is not None:  # opened here, not borrowed
                        teardowns.append(writer.close)
                sinks.append(writer.write)
            if hub is not None:
                sinks.append(lambda record: hub.publish("wide", record))
            fold = WideEventBuilder(run_id=run_id, sinks=sinks).attach(bus)
            teardowns.append(fold.detach)
        if hub is not None:
            teardowns.append(GaugeFeed(hub).attach(bus).detach)
            hub.publish("run", {**run_marker, "state": "started"})
        content = scenario.publish_default_content()
        client = scenario.make_client(
            system,
            handoff_policy=handoff_policy,
            staging_policy=staging_policy,
        )
        if gauges:
            # The staging-pipeline gauges need the manager, which only
            # exists for a SoftStage client.
            sampler = install_flight_recorder(
                scenario,
                manager=getattr(client, "manager", None),
            )
        process = scenario.sim.process(
            client.download(content, deadline=deadline)
        )
        download: DownloadResult = scenario.sim.run(until=process)
        probe = scenario.sim.probe
        if probe.active:
            # ARQ retries, drops and segment retransmissions are state on
            # the links and sessions, published as totals — before the
            # fold's run record counts the events it saw.
            publish_run_totals(probe, scenario.network.links, (
                scenario.server.endpoint,
                *(edge.endpoint for edge in scenario.edges),
                scenario.client_endpoint,
            ))
        if fold is not None:
            # Emit the run-summary wide record (post-run, like the live
            # trace's last events) before anything reads the output.
            fold.finish()
    except BaseException as exc:
        # A finished run hands its collector back still subscribed (the
        # benchmark's traced pass counts on it); a failed one returns
        # nothing, so nothing may stay behind.
        if collector is not None:
            collector.detach()
        if hub is not None:
            hub.publish("run", {
                **run_marker, "state": "failed", "error": type(exc).__name__,
            })
        raise
    finally:
        for teardown in reversed(teardowns):
            teardown()
    if hub is not None:
        hub.publish("run", {
            **run_marker, "state": "finished",
            "download_time": download.duration,
            "throughput_bps": download.throughput_bps,
            "chunks_completed": download.chunks_completed,
            "chunks_from_edge": download.chunks_from_edge,
        })
    if auditor is not None:
        auditor.check_object_totals(object_totals(scenario, client))
    return ExperimentResult(
        system=system,
        seed=seed,
        download=download,
        download_time=download.duration,
        run_id=run_id,
        policy=pname,
        metrics=collector,
        trace_path=exporter.path if exporter is not None else None,
        spans=fold.spans if spans else None,
        profile=profiler,
        sampler=sampler,
        auditor=auditor,
        wide_records=wide_records,
        sketches=recorder,
    )
