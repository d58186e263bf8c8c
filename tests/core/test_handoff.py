"""Tests for handoff policies and the Handoff Manager (no network)."""

from types import SimpleNamespace

import pytest

from repro.core.handoff import ChunkAwarePolicy, HandoffManager, RssGreedyPolicy
from repro.sim import Simulator


#: The hysteresis the Handoff Manager hands its policy, dB.
HYSTERESIS = HandoffManager.hysteresis_db


def visible(name: str, rss: float):
    """A minimal stand-in for a VisibleNetwork scan entry."""
    ap = SimpleNamespace(name=name, nid=None, vnf_sid=None, cache_hid=None)
    return SimpleNamespace(name=name, rss=rss, ap=ap)


def association(name: str):
    return SimpleNamespace(ap=SimpleNamespace(name=name), since=0.0)


# ---------------------------------------------------------------------------
# Policy target selection
# ---------------------------------------------------------------------------


def test_greedy_picks_strongest_when_offline():
    policy = RssGreedyPolicy()
    target = policy.select_target(
        [visible("B", -60), visible("A", -70)], None, hysteresis_db=HYSTERESIS
    )
    assert target.name == "B"


def test_greedy_stays_when_current_is_strongest():
    policy = RssGreedyPolicy()
    scan = [visible("A", -55), visible("B", -70)]
    assert policy.select_target(scan, association("A"), HYSTERESIS) is None


def test_greedy_respects_hysteresis():
    policy = RssGreedyPolicy()
    # Louder, but not by the hysteresis: stay.
    scan = [visible("B", -60 + HYSTERESIS - 1), visible("A", -60)]
    assert policy.select_target(scan, association("A"), HYSTERESIS) is None
    scan = [visible("B", -60 + HYSTERESIS + 2), visible("A", -60)]
    assert policy.select_target(scan, association("A"), HYSTERESIS).name == "B"


def test_greedy_switches_when_current_not_audible():
    policy = RssGreedyPolicy()
    scan = [visible("B", -80)]
    assert policy.select_target(scan, association("A"), HYSTERESIS).name == "B"


def test_greedy_no_networks_no_target():
    policy = RssGreedyPolicy()
    assert policy.select_target([], association("A"), HYSTERESIS) is None
    assert policy.select_target([], None, HYSTERESIS) is None


def test_chunk_aware_is_content_aware_flagged():
    assert not RssGreedyPolicy.content_aware
    assert ChunkAwarePolicy.content_aware


# ---------------------------------------------------------------------------
# HandoffManager with a fake controller/scanner
# ---------------------------------------------------------------------------


class FakeController:
    def __init__(self, sim):
        self.sim = sim
        self.current = None
        self.joined = []

    def associate(self, name):
        self.joined.append(name)
        self.current = association(name)
        yield self.sim.timeout(0.0)
        return self.current


class FakeScanner:
    def __init__(self):
        self.listeners = []

    def subscribe(self, listener):
        self.listeners.append(listener)

    def push(self, scan):
        for listener in self.listeners:
            listener(scan)


def make_manager(policy, prestage=None):
    sim = Simulator()
    controller = FakeController(sim)
    scanner = FakeScanner()
    manager = HandoffManager(
        sim, controller, scanner, policy=policy, prestage=prestage,
    )
    return sim, controller, scanner, manager


def test_offline_join_on_first_beacon():
    sim, controller, scanner, manager = make_manager(RssGreedyPolicy())
    scanner.push([visible("A", -60)])
    sim.run()
    assert controller.joined == ["A"]
    assert manager.handoffs == 1


def test_greedy_switches_immediately_even_mid_fetch():
    sim, controller, scanner, manager = make_manager(RssGreedyPolicy())
    scanner.push([visible("A", -60)])
    sim.run()
    manager.fetch_active = True
    scanner.push([visible("B", -50), visible("A", -60)])
    sim.run()
    assert controller.joined == ["A", "B"]


def test_chunk_aware_defers_until_boundary():
    prestaged = []
    sim, controller, scanner, manager = make_manager(
        ChunkAwarePolicy(), prestage=prestaged.append
    )
    scanner.push([visible("A", -60)])
    sim.run()
    manager.fetch_active = True
    scanner.push([visible("B", -50), visible("A", -60)])
    sim.run()
    # Not switched yet, but the target was pre-staged.
    assert controller.joined == ["A"]
    assert manager.pending_target.name == "B"
    assert [v.name for v in prestaged] == ["B"]
    # Chunk completes: the deferred handoff executes.
    manager.fetch_active = False
    manager.on_chunk_boundary()
    sim.run()
    assert controller.joined == ["A", "B"]
    assert manager.pending_target is None


def test_chunk_aware_executes_immediately_when_idle():
    sim, controller, scanner, manager = make_manager(ChunkAwarePolicy())
    scanner.push([visible("A", -60)])
    sim.run()
    manager.fetch_active = False
    scanner.push([visible("B", -50), visible("A", -60)])
    sim.run()
    assert controller.joined == ["A", "B"]


def test_pending_target_abandoned_when_it_fades():
    sim, controller, scanner, manager = make_manager(ChunkAwarePolicy())
    scanner.push([visible("A", -60)])
    sim.run()
    manager.fetch_active = True
    scanner.push([visible("B", -50), visible("A", -60)])
    assert manager.pending_target is not None
    # B disappears before the chunk completes.
    scanner.push([visible("A", -60)])
    assert manager.pending_target is None
    manager.on_chunk_boundary()
    sim.run()
    assert controller.joined == ["A"]


def test_prestage_fires_once_per_target():
    prestaged = []
    sim, controller, scanner, manager = make_manager(
        ChunkAwarePolicy(), prestage=prestaged.append
    )
    scanner.push([visible("A", -60)])
    sim.run()
    manager.fetch_active = True
    for _ in range(4):
        scanner.push([visible("B", -50), visible("A", -60)])
    assert len(prestaged) == 1
