"""Parity: each count has one home (an object, or the collector when no
object keeps it), the auditor's event books match the objects' counts,
and a JSONL trace replays into a report identical to the live one."""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs.trace import replay_trace
from repro.util import MB

PARAMS = MicrobenchParams(file_size=4 * MB, chunk_size=1 * MB, packet_loss=0.05)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    # gauges + audit ride along: every parity run is continuously
    # checked against the conservation invariants (a strict auditor
    # raises at the first violation) at zero extra test cost.
    trace = tmp_path_factory.mktemp("obs") / "softstage.jsonl"
    result = run_download(
        "softstage", params=PARAMS, seed=0, trace_path=str(trace),
        gauges=True, audit=True,
    )
    return result


#: Counts an object or the run record keeps: the collector holds no copy.
OBJECT_HOMED = (
    "cache.hits", "cache.misses", "cache.evictions", "staging.signals",
    "vnf.staged", "vnf.failures", "chunks.fetched", "chunks.from_edge",
    "chunks.from_origin", "chunks.fallbacks", "coverage.gaps",
    "handoff.deferred", "coverage.gap_duration.mean",
    "coverage.encounter_duration.mean",
)


def test_collector_counters_match_legacy_download_counters(traced_run):
    download = traced_run.download
    report = traced_run.metrics.report()
    assert report["handoff.executed"] == download.handoffs
    assert report["fetch.latency.mean"] > 0
    assert not set(OBJECT_HOMED) & set(report)


def test_coordinator_and_staging_counters_are_consistent(traced_run):
    report = traced_run.metrics.report()
    signals = traced_run.download.staging_signals
    assert signals > 0
    # Every signal carried at least one chunk entry.
    assert report["staging.chunks_signalled"] >= signals
    # The coordinator ticked at least once per signal it raised.
    assert report["coordinator.ticks"] >= signals
    # Staged responses observed by the tracker came from VNF completions.
    staged = traced_run.auditor.event_counts["VnfStageCompleted"]
    assert 0 < len(traced_run.metrics.samples("staging.latency")) <= staged


def test_replay_report_is_identical_to_live_report(traced_run):
    replayed = replay_trace(traced_run.trace_path)
    assert replayed.report() == traced_run.metrics.report()


def test_live_run_passes_the_invariant_audit(traced_run):
    auditor = traced_run.auditor
    assert auditor is not None and auditor.ok
    assert auditor.events_audited > 0
    # The end-of-run double entry (event books against the objects'
    # counts) ran inside run_download and found nothing.
    assert auditor.violations == []
    assert auditor.event_counts["ChunkFetched"] == (
        traced_run.download.chunks_from_edge
        + traced_run.download.chunks_from_origin
    )


def test_replayed_gauge_timelines_match_live(traced_run):
    replayed = replay_trace(traced_run.trace_path)
    live = traced_run.metrics.timelines("gauge.")
    assert live  # the flight recorder actually sampled
    assert replayed.timelines("gauge.") == live


def test_replayed_trace_passes_the_invariant_audit(traced_run):
    from repro.obs.bus import EventBus
    from repro.obs.flight import InvariantAuditor
    from repro.obs.trace import read_trace

    bus = EventBus()
    auditor = InvariantAuditor(strict=True).attach(bus)
    for stamped in read_trace(traced_run.trace_path):
        bus.publish(stamped)
    assert auditor.ok
    assert auditor.events_audited == traced_run.auditor.events_audited


def test_uninstrumented_run_attaches_nothing():
    result = run_download("softstage", params=PARAMS, seed=0)
    assert result.metrics is None
    assert result.trace_path is None


def test_xftp_run_emits_no_staging_events(tmp_path):
    trace = tmp_path / "xftp.jsonl"
    result = run_download(
        "xftp", params=PARAMS, seed=0, trace_path=str(trace)
    )
    report = result.metrics.report()
    assert "staging.chunks_signalled" not in report
    assert "staging.latency.mean" not in report
    # Xftp drives ChunkFetcher directly (no ChunkManager), so no
    # per-chunk fetch events — but handoffs and cache traffic still show.
    assert "fetch.latency.mean" not in report
    assert report["handoff.executed"] == result.download.handoffs
    assert report  # link/handoff/coverage events still flow
    replayed = replay_trace(str(trace))
    assert replayed.report() == report


def test_audit_alone_attaches_no_collector():
    result = run_download("softstage", params=PARAMS, seed=0, audit=True)
    assert result.metrics is None
    assert result.auditor.ok


def test_object_totals_pair_the_staging_events_only_for_softstage():
    from repro.experiments.runner import object_totals
    from repro.experiments.scenario import TestbedScenario

    keys = {}
    for system in ("xftp", "endtoend", "softstage"):
        scenario = TestbedScenario(params=PARAMS, seed=0)
        keys[system] = set(object_totals(scenario, scenario.make_client(system)))
    shared = {"CacheHit", "CacheEvicted", "VnfStageCompleted",
              "VnfStageFailed", "HandoffStarted"}
    assert keys["xftp"] == keys["endtoend"] == shared
    assert keys["softstage"] == shared | {
        "CoordinatorTick", "StagingSignalled", "StaleStagingResponse",
        "ChunkFetched",
    }


def test_two_decision_counts_differ_for_a_policy_with_hooks():
    """``coordinator.decisions`` (the collector) counts ticks that
    decided; ``StagingCoordinator.decisions`` also counts the lifecycle
    hooks' decisions.  The rich policy decides in a hook only."""
    from repro.core.policy import make_policy
    from repro.experiments.scenario import TestbedScenario
    from repro.metrics.collector import MetricsCollector

    scenario = TestbedScenario(params=MicrobenchParams(file_size=8 * MB), seed=1)
    collector = MetricsCollector().attach(scenario.sim.probe.bus)
    content = scenario.publish_default_content()
    client = scenario.make_client(
        "softstage", staging_policy=make_policy("rich", scenario)
    )
    scenario.sim.run(until=scenario.sim.process(client.download(content)))
    assert collector.counters.get("coordinator.decisions", 0) == 0
    assert client.manager.coordinator.decisions == 1
