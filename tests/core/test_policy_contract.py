"""Conformance suite for the pluggable StagingPolicy framework.

Every shipped policy (reactive, predictive, rich, mobility) must obey
the same contract:

- no staging signals for unpublished content (an empty profile);
- no duplicate staging requests for chunks already in flight;
- fixed-seed determinism (two identical runs, identical outcomes);
- downloads complete cleanly through disconnections and handoffs.

Plus the refactor's hard guarantee: the default ``ReactiveEq1Policy``
reproduces the pre-framework coordinator's fixed-seed metrics
*bit-identically* (checked under the invariant auditor), and passing
``policy="reactive"`` explicitly changes nothing but the run id.
"""

import pytest

from repro.core import ChunkProfile, StagingCoordinator
from repro.core.policy import (
    ActionKind,
    StagingAction,
    StagingObservation,
    StagingPolicy,
    available_policies,
    make_policy,
    policy_name,
)
from repro.core.states import StagingState
from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.scenario import TestbedScenario
from repro.sim import Simulator
from repro.util import MB
from repro.xcache import Chunk
from repro.xia import DagAddress, HID, NID
from tests.core.test_coordinator import FakeSensor, FakeTracker as _FakeTracker

ALL_POLICIES = ("reactive", "predictive", "rich", "mobility")

NID_S, HID_S = NID("origin"), HID("server")


# -- harness -----------------------------------------------------------------


class FakeTracker(_FakeTracker):
    """Records every signal; tracks per-cid signal counts."""

    def signalled_cids(self):
        return [r.cid for records, _, _ in self.calls for r in records]


def named_policy(name):
    """Build a shipped policy via the registry (scenario-backed, so the
    predictive policy gets its mobility predictor)."""
    scenario = TestbedScenario(
        params=MicrobenchParams(file_size=2 * MB, chunk_size=MB), seed=0
    )
    return make_policy(name, scenario)


def build(num_chunks, policy, sensor=None):
    sim = Simulator()
    profile = ChunkProfile()
    for i in range(num_chunks):
        chunk = Chunk.synthetic("content", i, 1000)
        profile.register(chunk.cid, i, 1000,
                         DagAddress.content(chunk.cid, NID_S, HID_S))
    tracker = FakeTracker()
    coordinator = StagingCoordinator(
        sim, profile, tracker, sensor or FakeSensor(), policy=policy,
    )
    return sim, profile, tracker, coordinator


# -- the contract ------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_no_staging_for_unpublished_content(name):
    """An empty profile (nothing published/registered) stays silent."""
    _, profile, tracker, coordinator = build(0, named_policy(name))
    assert coordinator.tick() == 0
    assert tracker.calls == []
    assert profile.pending_staging() == 0


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_no_duplicate_requests_for_in_flight_chunks(name):
    """Chunks already PENDING (and not stale) are never re-signalled."""
    _, _, tracker, coordinator = build(40, named_policy(name))
    coordinator.tick()
    coordinator.tick()  # same sim time: nothing stale, nothing fetched
    cids = tracker.signalled_cids()
    assert len(cids) == len(set(cids)), "duplicate staging request"


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_fixed_seed_determinism(name):
    """Two identical runs produce identical outcomes."""
    params = MicrobenchParams(file_size=4 * MB, chunk_size=MB)
    results = [
        run_download("softstage", params=params, seed=3, policy=name)
        for _ in range(2)
    ]
    a, b = (r.download for r in results)
    assert a.duration == b.duration
    assert a.bytes_received == b.bytes_received
    assert a.chunks_from_edge == b.chunks_from_edge
    assert a.chunks_from_origin == b.chunks_from_origin
    assert a.handoffs == b.handoffs
    assert a.staging_signals == b.staging_signals
    assert results[0].policy == name


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_download_completes_through_handoffs(name):
    """Disconnections and handoffs never wedge a policy-driven run."""
    params = MicrobenchParams(file_size=8 * MB, chunk_size=MB,
                              encounter_time=4.0)
    result = run_download("softstage", params=params, seed=1, policy=name)
    assert result.download.bytes_received == params.file_size
    assert result.download.handoffs >= 1
    assert result.run_id == f"softstage-{name}-seed1"


# -- reactive parity: the refactor's hard guarantee --------------------------


GOLDEN_8MB_SEED0 = {
    "duration": 8.681552867077368,
    "bytes_received": 8_000_000,
    "chunks_from_edge": 7,
    "chunks_from_origin": 1,
    "fallbacks": 0,
    "handoffs": 1,
    "staging_signals": 1,
}


def test_reactive_parity_with_pre_framework_coordinator():
    """Bit-identical fixed-seed metrics, under gauges + strict audit."""
    params = MicrobenchParams(file_size=8 * MB, chunk_size=MB)
    result = run_download("softstage", params=params, seed=0,
                          gauges=True, audit=True)
    download = result.download
    for metric, expected in GOLDEN_8MB_SEED0.items():
        assert getattr(download, metric) == expected, metric


def test_explicit_reactive_equals_default():
    """policy="reactive" only changes the run id, nothing else."""
    params = MicrobenchParams(file_size=8 * MB, chunk_size=MB)
    default = run_download("softstage", params=params, seed=0)
    explicit = run_download("softstage", params=params, seed=0,
                            policy="reactive")
    assert default.run_id == "softstage-seed0"
    assert explicit.run_id == "softstage-reactive-seed0"
    assert default.policy == ""
    assert explicit.policy == "reactive"
    a, b = default.download, explicit.download
    assert a.duration == b.duration
    assert a.chunks_from_edge == b.chunks_from_edge
    assert a.staging_signals == b.staging_signals


# -- action executor ---------------------------------------------------------


class ScriptedPolicy(StagingPolicy):
    """Plays back a fixed list of action lists, one per tick."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)

    def decide(self, obs: StagingObservation):
        return self.script.pop(0) if self.script else []


def test_cancel_returns_pending_chunks_to_blank():
    _, profile, tracker, coordinator = build(
        4,
        ScriptedPolicy([
            [StagingAction.stage(2)],
            [],  # filled in below once the cids exist
        ]),
    )
    coordinator.tick()
    pending = [r for r in profile.records()
               if r.staging_state is StagingState.PENDING]
    assert len(pending) == 2
    coordinator.policy.script = [
        [StagingAction.cancel([r.cid for r in pending])]
    ]
    coordinator.tick()
    assert profile.pending_staging() == 0
    for record in pending:
        assert record.staging_state is StagingState.BLANK
        assert record.staging_requested_at is None
    # Cancelling sends no packets.
    assert len(tracker.calls) == 1


def test_stage_toward_unknown_network_is_dropped():
    """Fault tolerance: a target without a VNF drops the action."""
    _, profile, tracker, coordinator = build(
        4, ScriptedPolicy([[StagingAction.stage(2, target="nowhere")]])
    )
    coordinator.tick()
    assert tracker.calls == []
    assert profile.pending_staging() == 0


# -- registry ----------------------------------------------------------------


def test_registry_lists_all_shipped_policies():
    assert set(available_policies()) == set(ALL_POLICIES)


def test_make_policy_unknown_name_lists_options():
    with pytest.raises(ConfigurationError) as exc:
        make_policy("nosuch")
    message = str(exc.value)
    for name in ALL_POLICIES:
        assert name in message


def test_policy_name_resolution():
    assert policy_name(None) == ""
    assert policy_name("rich") == "rich"
    assert policy_name(named_policy("mobility")) == "mobility"
