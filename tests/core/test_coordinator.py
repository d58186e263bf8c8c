"""Tests for the Staging Coordinator (Eq. 1) without a network.

The tracker and sensor are replaced by minimal doubles so the
algorithm's arithmetic and signalling decisions can be checked in
isolation.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core import ChunkProfile, ReactiveEq1Policy, StagingCoordinator
from repro.core.profile import EwmaEstimator
from repro.core.states import StagingState
from repro.sim import Simulator
from repro.xcache import Chunk
from repro.xia import DagAddress, HID, NID, SID


NID_S, HID_S = NID("origin"), HID("server")
VNF_DAG = DagAddress.service(SID("vnf"), NID("edge-a"), HID("cache-a"))


class FakeTracker:
    host = SimpleNamespace(ports=())  # no links: nothing queued

    def __init__(self):
        self.calls = []

    def signal(self, records, vnf, label=""):
        self.calls.append((list(records), vnf, label))
        for record in records:
            record.staging_state = StagingState.PENDING
            record.staging_requested_at = 0.0
        return len(records)


class FakeController:
    """Joined to one AP nobody advertises (or, offline, to none)."""

    access_points = {}

    def __init__(self, connected):
        self.current = SimpleNamespace(
            ap=SimpleNamespace(name="edge-a"), since=0.0
        ) if connected else None

    def on_attach(self, callback):
        pass

    on_detach = on_attach


class FakeSensor:
    last_scan = ()

    def __init__(self, vnf=VNF_DAG, gap=None):
        self.vnf = vnf
        self.gap = gap
        self.controller = FakeController(connected=vnf is not None)
        self.encounter_duration = EwmaEstimator()

    def current_vnf_address(self):
        return self.vnf

    def expected_gap(self, default):
        return self.gap if self.gap is not None else default


def build(num_chunks=40, sensor=None):
    sim = Simulator()
    profile = ChunkProfile()
    for i in range(num_chunks):
        chunk = Chunk.synthetic("content", i, 1000)
        profile.register(chunk.cid, i, 1000,
                         DagAddress.content(chunk.cid, NID_S, HID_S))
    tracker = FakeTracker()
    coordinator = StagingCoordinator(
        sim, profile, tracker, sensor or FakeSensor(),
    )
    return sim, profile, tracker, coordinator


def test_eq1_threshold_from_estimates():
    _, profile, _, coordinator = build()
    profile.rtt_to_edge.observe(0.02)
    profile.staging_latency.observe(1.0)
    profile.edge_fetch_latency.observe(0.5)
    # (0.02 + 1.0) / 0.5
    assert coordinator.policy.eq1_threshold(coordinator.observe()) == pytest.approx(2.04)


def test_eq1_threshold_uses_defaults_when_empty():
    _, _, _, coordinator = build()
    policy = ReactiveEq1Policy
    assert coordinator.policy.eq1_threshold(coordinator.observe()) == pytest.approx(
        (policy.default_rtt + policy.default_staging_latency)
        / policy.default_fetch_latency
    )


def test_slow_internet_raises_threshold():
    """The paper's 'aggressively stage more when the Internet is slow'."""
    _, profile, _, coordinator = build()
    profile.rtt_to_edge.observe(0.02)
    profile.edge_fetch_latency.observe(0.5)
    profile.staging_latency.observe(0.5)
    fast = coordinator.policy.eq1_threshold(coordinator.observe())
    profile.staging_latency._value = 4.0  # Internet got 8x slower
    slow = coordinator.policy.eq1_threshold(coordinator.observe())
    assert slow > 4 * fast


def test_gap_allowance_scales_with_observed_gap():
    _, profile, _, c_small = build(sensor=FakeSensor(gap=8.0))
    profile.staging_latency.observe(1.0)
    assert c_small.policy.gap_allowance(c_small.observe()) == 8

    _, profile2, _, c_large = build(sensor=FakeSensor(gap=100.0))
    profile2.staging_latency.observe(1.0)
    assert c_large.policy.gap_allowance(c_large.observe()) == 100


def test_target_capped_by_max_stage_ahead():
    cap = ReactiveEq1Policy.max_stage_ahead
    _, profile, _, coordinator = build(sensor=FakeSensor(gap=10.0 * cap))
    profile.staging_latency.observe(1.0)
    assert coordinator.policy.target_signalled(coordinator.observe()) == cap


def test_tick_signals_deficit():
    sensor = FakeSensor(gap=3.0)
    _, profile, tracker, coordinator = build(sensor=sensor)
    signalled = coordinator.tick()
    # The initial burst plus the gap allowance, before any estimates.
    policy = ReactiveEq1Policy
    expected = policy.initial_stage_count + math.ceil(
        3.0 / policy.default_staging_latency)
    assert signalled == expected
    assert profile.pending_staging() == expected
    # A second tick with nothing changed signals nothing.
    assert coordinator.tick() == 0


def test_tick_uses_eq1_after_first_confirmation():
    sensor = FakeSensor(gap=2.0)
    _, profile, tracker, coordinator = build(sensor=sensor)
    profile.observe_staging(1.0, 0.02)      # Lstage = 1
    profile.edge_fetch_latency.observe(0.25)  # Lfetch
    coordinator.tick()
    # eq1 = (0.02+1)/0.25 = 4.08 -> 5; allowance = ceil(2/1) = 2 -> 7.
    assert profile.pending_staging() == math.ceil(4.08) + 2


def test_tick_without_vnf_does_nothing():
    _, profile, tracker, coordinator = build(sensor=FakeSensor(vnf=None))
    assert coordinator.tick() == 0
    assert profile.pending_staging() == 0
    assert tracker.calls == []


def test_tick_resignals_stale_pending():
    sim, profile, tracker, coordinator = build()
    coordinator.tick()
    first_calls = len(tracker.calls)
    # Let the pending entries go stale.
    sim._now = coordinator.staging_signal_timeout + 1.0
    coordinator.tick()
    assert len(tracker.calls) > first_calls
    assert tracker.calls[-1][2] in ("re-signal", "eq1")


def test_poll_loop_runs_until_all_fetched():
    sim, profile, tracker, coordinator = build(num_chunks=2)
    coordinator.start()
    sim.run(until=2.0)
    assert coordinator.ticks >= 4
    for record in profile.records():
        profile.observe_fetch(record, 0.1, from_edge=True)
    ticks_at_done = coordinator.ticks
    sim.run(until=4.0)
    assert coordinator.ticks <= ticks_at_done + 1


def test_stop_halts_loop():
    sim, _, _, coordinator = build()
    coordinator.start()
    sim.run(until=1.0)
    coordinator.stop()
    ticks = coordinator.ticks
    sim.run(until=3.0)
    assert coordinator.ticks == ticks
