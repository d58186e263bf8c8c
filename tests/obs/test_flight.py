"""Flight recorder: gauge sampling, replay parity, invariant auditing."""

import io
import itertools
from collections import Counter

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.metrics.collector import MetricsCollector
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import (
    CacheEvicted,
    CacheHit,
    CacheStored,
    ChunkStaged,
    CoordinatorTick,
    GaugeSample,
    HandoffStarted,
    PacketDropped,
    SegmentRetransmitted,
    StagingSignalled,
)
from repro.obs.flight import (
    GaugeSampler,
    InvariantAuditor,
    InvariantViolationError,
    install_flight_recorder,
)
from repro.obs.trace import replay_trace
from repro.sim import Simulator
from repro.util import MB

PARAMS = MicrobenchParams(file_size=2 * MB)


# ---------------------------------------------------------------------------
# GaugeSampler
# ---------------------------------------------------------------------------


def _collected(sim):
    collector = MetricsCollector()
    collector.attach(sim.probe.bus)
    return collector


def test_sampler_emits_each_gauge_every_period():
    sim = Simulator()
    sim.probe.run_id = "r"
    collector = _collected(sim)
    state = {"x": 0.0}
    sampler = GaugeSampler(sim)
    sampler.register("test.x", lambda: state["x"])
    sampler.start()

    def bump():
        while True:
            state["x"] += 1.0
            yield sim.timeout(GaugeSampler.period)

    sim.process(bump())
    sim.run(until=1.75)
    assert collector.timelines() == {
        "gauge.r.test.x": [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0)],
    }
    assert sampler.samples_taken == 4


def test_sampler_rejects_duplicate_gauge_names():
    sampler = GaugeSampler(Simulator())
    sampler.register("a", lambda: 0.0)
    with pytest.raises(ValueError, match="already registered"):
        sampler.register("a", lambda: 1.0)


def test_sampler_is_silent_without_subscribers():
    sim = Simulator()
    sampler = GaugeSampler(sim)
    calls = []
    sampler.register("g", lambda: calls.append(1) or 0.0)
    sampler.start()
    sim.run(until=5.0)
    # probe.active is False with nothing attached: gauges never even read.
    assert calls == []
    assert sampler.samples_taken == 0


def test_start_is_idempotent():
    sim = Simulator()
    sim.probe.run_id = "r"
    collector = _collected(sim)
    sampler = GaugeSampler(sim).register("g", lambda: 1.0)
    sampler.start()
    sampler.start()
    sim.run(until=1.25)
    assert len(collector.timelines()["gauge.r.g"]) == 3  # not doubled


# ---------------------------------------------------------------------------
# Full-stack: recorder does not perturb the simulation; replay is exact
# ---------------------------------------------------------------------------


def test_recorder_does_not_perturb_the_fixed_seed_run():
    bare = run_download("softstage", params=PARAMS, seed=3)
    recorded = run_download(
        "softstage", params=PARAMS, seed=3, gauges=True, audit=True
    )
    assert recorded.download_time == bare.download_time
    assert recorded.download.bytes_received == bare.download.bytes_received
    assert recorded.download.handoffs == bare.download.handoffs


def test_gauge_timelines_replay_identically():
    buf = io.StringIO()
    live = run_download(
        "softstage", params=PARAMS, seed=0, gauges=True, trace_path=buf
    )
    live_timelines = live.metrics.timelines("gauge.")
    assert live_timelines
    buf.seek(0)
    replayed = replay_trace(buf)
    assert replayed.timelines("gauge.") == live_timelines
    assert replayed.report() == live.metrics.report()


def _gauge_names(result):
    prefix = f"gauge.{result.run_id}."
    return {name[len(prefix):] for name in result.metrics.timelines(prefix)}


def test_standard_gauge_set_covers_the_issue_surface():
    result = run_download("softstage", params=PARAMS, seed=0, gauges=True)
    names = _gauge_names(result)
    for expected in (
        "staging.lead_bytes",
        "staging.pending_chunks",
        "staging.staged_ahead_chunks",
        "client.progress_bytes",
        "client.connected",
        "pool.event_allocs",
        "pool.events_free",
        "pool.packet_releases",
        "pool.packets_free",
    ):
        assert expected in names, expected
    assert any(name.startswith("cache.occupancy_bytes.") for name in names)
    assert any(name.startswith("link.queue_bytes.") for name in names)
    assert any(name.startswith("link.utilization.") for name in names)


def test_xftp_run_records_gauges_without_staging_pipeline():
    result = run_download("xftp", params=PARAMS, seed=0, gauges=True)
    names = _gauge_names(result)
    assert "client.connected" in names
    assert "staging.lead_bytes" not in names  # no manager on Xftp


def test_gauges_off_means_no_sampler_and_no_gauge_series():
    result = run_download("softstage", params=PARAMS, seed=0, instrument=True)
    assert result.sampler is None
    assert result.metrics.timelines("gauge.") == {}


# ---------------------------------------------------------------------------
# InvariantAuditor
# ---------------------------------------------------------------------------


def _stamp(event, time=1.0, run_id="r"):
    return Stamped(time=time, run_id=run_id, event=event)


def _tick(*readings):
    """One sampler tick holding ``(name, value)`` readings, in order."""
    names, values = zip(*readings)
    return GaugeSample(gauges=names, values=values)


def _audited_bus(strict=True):
    bus = EventBus()
    auditor = InvariantAuditor(strict=strict).attach(bus)
    return bus, auditor


def test_audited_live_run_is_clean():
    result = run_download(
        "softstage", params=PARAMS, seed=0, gauges=True, audit=True
    )
    assert result.auditor is not None
    assert result.auditor.ok
    assert result.auditor.events_audited > 0


def test_eviction_exceeding_stored_bytes_fires():
    bus, auditor = _audited_bus()
    bus.publish(_stamp(CacheStored(store="s", cid="c1", size_bytes=100, pinned=False)))
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(_stamp(CacheEvicted(store="s", cid="c1", size_bytes=200)))
    (violation,) = info.value.violations
    assert violation.invariant == "cache-conservation"
    assert not auditor.ok


def test_occupancy_gauge_disagreeing_with_balance_fires():
    bus, auditor = _audited_bus()
    bus.publish(_stamp(CacheStored(store="s", cid="c1", size_bytes=100, pinned=False)))
    with pytest.raises(InvariantViolationError):
        bus.publish(_stamp(_tick(("cache.occupancy_bytes.s", 150.0))))
    assert not auditor.ok


def test_ready_without_pending_fires_with_a_useful_report():
    bus, auditor = _audited_bus()
    bus.publish(_stamp(CacheStored(store="s", cid="c9", size_bytes=1, pinned=False)))
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(
            _stamp(
                ChunkStaged(
                    cid="c9", staging_latency=None, control_rtt=None
                ),
                time=2.0,
            )
        )
    report = info.value.violations[0].render()
    # The report names the invariant, the time, and carries the
    # timeline slice leading up to the violation.
    assert "staging-state" in report
    assert "t=2.0" in report
    assert "timeline slice" in report
    assert "CacheStored" in report
    assert "c9" in report


def test_monotonic_time_violation_fires():
    bus, _auditor = _audited_bus()
    bus.publish(_stamp(CacheStored(store="s", cid="c", size_bytes=1, pinned=False), time=5.0))
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(
            _stamp(CacheStored(store="s", cid="d", size_bytes=1, pinned=False), time=4.0)
        )
    assert info.value.violations[0].invariant == "monotonic-time"


def test_negative_gauge_fires():
    bus, _auditor = _audited_bus()
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(_stamp(_tick(("g", -1.0))))
    assert info.value.violations[0].invariant == "gauge-sane"


def test_pool_free_list_exceeding_allocs_fires():
    bus, _auditor = _audited_bus()
    # The bound is read earlier in the same tick, as the sampler orders it.
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(_stamp(_tick(
            ("pool.event_allocs", 10.0), ("pool.events_free", 11.0),
        )))
    assert info.value.violations[0].invariant == "pool-balance"


def test_non_strict_auditor_accumulates_instead_of_raising():
    bus, auditor = _audited_bus(strict=False)
    bus.publish(_stamp(_tick(("g", -1.0), ("h", -2.0))))
    assert len(auditor.violations) == 2
    assert not auditor.ok
    assert "2 violation(s)" in auditor.render()


def test_object_totals_detect_an_event_the_objects_did_not_count():
    bus, auditor = _audited_bus(strict=False)
    bus.publish(_stamp(CacheHit(store="s", cid="c")))
    # The stores claim two hits; the bus carried one.
    violations = auditor.check_object_totals({"CacheHit": ("Σ store.hits", 2)})
    (violation,) = violations
    assert violation.invariant == "event-totals"
    assert violation.detail == (
        "the bus carried 1 CacheHit events but Σ store.hits is 2"
    )
    assert auditor.violations == violations


def test_object_totals_pass_when_the_store_and_the_bus_agree():
    from repro.xcache.chunk import Chunk
    from repro.xcache.store import ContentStore

    sim = Simulator()
    auditor = InvariantAuditor(strict=True).attach(sim.probe.bus)
    store = ContentStore(capacity_bytes=100, probe=sim.probe, name="s")
    first, second = Chunk.synthetic("c", 0, 60), Chunk.synthetic("c", 1, 60)
    store.put(first)
    store.get(first.cid)
    store.put(second)  # evicts the first
    totals = {
        "CacheHit": ("Σ store.hits", store.hits),
        "CacheEvicted": ("Σ store.evictions", store.evictions),
    }
    assert totals == {"CacheHit": ("Σ store.hits", 1),
                      "CacheEvicted": ("Σ store.evictions", 1)}
    assert auditor.check_object_totals(totals) == []


def test_detach_stops_auditing():
    bus, auditor = _audited_bus()
    auditor.detach()
    bus_active_events = auditor.events_audited
    # After detach the bus has no subscribers; publishing is a no-op
    # for the auditor even if something else re-activates the bus.
    bus.subscribe_all(lambda stamped: None)
    bus.publish(_stamp(_tick(("g", -1.0))))
    assert auditor.events_audited == bus_active_events
    assert auditor.ok


# -- evidence is rendered on demand, from the events as they were published --


def _eager_entry(stamped):
    """The renderer the auditor ran per event until evidence became lazy."""
    event = stamped.event
    return f"t={stamped.time:.6f} {type(event).__name__} " + " ".join(
        f"{name}={getattr(event, name)!r}" for name in event.__dataclass_fields__
    )


def _mixed_events(n=40):
    """A healthy stream cycling booked and un-booked event types."""
    makers = [
        lambda i: SegmentRetransmitted(session=i, count=i % 3 + 1),
        lambda i: _tick(("link.queue_bytes.wifi-A.fwd", float(i)),
                        ("link.utilization.wifi-A.fwd", i / 64)),
        lambda i: PacketDropped(link="internet.fwd", count=i % 2 + 1),
        lambda i: CacheStored(store="s", cid=f"c{i}", size_bytes=10, pinned=i % 2 == 0),
        lambda i: CoordinatorTick(signalled=i, decision=True, offline=False),
        lambda i: StagingSignalled(count=1, label='vnf "A"', cids=f"c{i}"),
    ]
    return [
        _stamp(makers[i % len(makers)](i), time=0.125 * i, run_id="r")
        for i in range(n)
    ]


def test_violation_timeline_is_the_eager_rendering_of_the_last_16():
    bus, auditor = _audited_bus()
    published = _mixed_events()
    for stamped in published:
        bus.publish(stamped)
    offender = _stamp(
        ChunkStaged(cid="never-signalled", staging_latency=None, control_rtt=0.25),
        time=9.0,
    )
    published.append(offender)
    with pytest.raises(InvariantViolationError) as info:
        bus.publish(offender)
    (violation,) = info.value.violations
    assert violation.invariant == "staging-state"
    assert violation.timeline == tuple(
        _eager_entry(stamped) for stamped in published[-16:]
    )
    assert violation.timeline[-1].startswith("t=9.000000 ChunkStaged cid='never-")
    # The books read what they always read.
    assert auditor.events_audited == 41
    assert auditor.event_counts == Counter(
        type(stamped.event).__name__ for stamped in published
    )


def test_object_totals_timeline_is_the_same_rendering():
    bus, auditor = _audited_bus(strict=False)
    published = _mixed_events()
    for stamped in published:
        bus.publish(stamped)
    found = auditor.check_object_totals({
        "CoordinatorTick": ("coordinator.ticks", 3),  # the bus carried 6
        "StagingSignalled": ("tracker.signals_sent", 6),  # agrees
        "ChunkFetched": ("chunks_from_edge + chunks_from_origin", 1),
    })
    assert [v.detail for v in found] == [
        "the bus carried 6 CoordinatorTick events but coordinator.ticks is 3",
        "the bus carried 0 ChunkFetched events but "
        "chunks_from_edge + chunks_from_origin is 1",
    ]
    expected = tuple(_eager_entry(stamped) for stamped in published[-16:])
    assert all(violation.timeline == expected for violation in found)
    assert auditor.events_audited == 40


# ---------------------------------------------------------------------------
# Fault injection through the real stack
# ---------------------------------------------------------------------------


def test_injected_cache_fault_is_caught_in_a_real_scenario():
    """Deliberately corrupt a live run's cache accounting mid-flight:
    the auditor must fire with the store named in the report."""
    from repro.experiments.scenario import TestbedScenario

    scenario = TestbedScenario(params=PARAMS, seed=0)
    scenario.sim.probe.run_id = "fault"
    _collected(scenario.sim)
    auditor = InvariantAuditor(strict=False).attach(scenario.sim.probe.bus)
    install_flight_recorder(scenario)
    store = scenario.edges[0].store

    def corrupt():
        yield scenario.sim.timeout(1.0)
        # Phantom eviction: the event stream claims bytes left the
        # store that were never stored.
        scenario.sim.probe.emit(
            CacheEvicted(store=store.name, cid="phantom", size_bytes=999)
        )

    scenario.sim.process(corrupt())
    scenario.sim.run(until=3.0)
    assert not auditor.ok
    assert any(
        v.invariant == "cache-conservation" and store.name in v.detail
        for v in auditor.violations
    )


# -- the double entry catches an emit that drifts from its object's count --


def _wrapped_emit(monkeypatch, rewrite):
    """Route every probe emit through ``rewrite(emit, probe, event)``."""
    from repro.obs.probe import Probe

    emit = Probe.emit
    monkeypatch.setattr(
        Probe, "emit", lambda probe, event: rewrite(emit, probe, event)
    )


def test_a_swallowed_coordinator_tick_fails_the_audited_run(monkeypatch):
    ticks = itertools.count()

    def lossy(emit, probe, event):
        if type(event) is CoordinatorTick and next(ticks) % 2:
            return  # every second tick never reaches the bus
        emit(probe, event)

    _wrapped_emit(monkeypatch, lossy)
    with pytest.raises(InvariantViolationError) as info:
        run_download("softstage", params=PARAMS, seed=0, audit=True)
    (violation,) = info.value.violations
    assert violation.invariant == "event-totals"
    assert " CoordinatorTick events but coordinator.ticks is " in violation.detail


def test_a_doubled_handoff_start_fails_the_audited_run(monkeypatch):
    def doubled(emit, probe, event):
        emit(probe, event)
        if type(event) is HandoffStarted:
            emit(probe, event)

    _wrapped_emit(monkeypatch, doubled)
    with pytest.raises(InvariantViolationError) as info:
        run_download("xftp", params=PARAMS, seed=0, audit=True)
    (violation,) = info.value.violations
    assert violation.invariant == "event-totals"
    assert (" HandoffStarted events but handoff_manager.handoffs is "
            in violation.detail)
