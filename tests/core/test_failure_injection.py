"""Failure-injection tests: the fault-tolerance paths of Table II.

What happens when the edge misbehaves: staged chunks vanish from the
cache, the VNF cannot reach the origin, staging confirmations are lost.
"""

import pytest

from repro.core.states import StagingState
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.mobility.coverage import Coverage, CoverageWindow
from repro.transport.config import TransportConfig
from repro.util import MB


def always_on_scenario(monkeypatch):
    params = MicrobenchParams(
        file_size=3 * MB, chunk_size=1 * MB, packet_loss=0.05
    )
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 100_000.0)])
    # Short retry budget so fallback happens quickly in tests.
    monkeypatch.setattr(TransportConfig, "request_timeout", 0.3)
    monkeypatch.setattr(TransportConfig, "request_retries", 4)
    return TestbedScenario(params=params, seed=8, coverage=coverage)


def test_stale_staged_copy_falls_back_to_origin(monkeypatch):
    """A chunk marked READY whose edge copy vanished: the fetch times
    out against the edge and XfetchChunk* falls back to the raw DAG."""
    scenario = always_on_scenario(monkeypatch)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    manager = client.manager
    manager.register_content(content)
    scenario.sim.run(until=1.0)

    edge = scenario.edges[0]
    record = manager.profile.get(content.chunks[0].cid)
    # Forge a READY record pointing at the edge... without the chunk.
    record.mark_staged(
        record.raw_dag.replace_fallback(edge.router.nid, edge.router.hid),
        edge.router.nid, edge.router.hid,
        staging_latency=0.5, fetch_rtt=0.01,
    )
    assert not edge.store.has(record.cid)

    fetch = scenario.sim.process(
        manager.chunk_manager.xfetch_chunk_star(record.cid)
    )
    outcome = scenario.sim.run(until=fetch)
    assert outcome.bytes_received == content.chunks[0].size_bytes
    assert outcome.served_by_hid == scenario.server_host.hid
    assert manager.chunk_manager.fallbacks == 1
    assert record.staging_state is StagingState.DONE


def test_vnf_stage_failure_counted_and_survivable(monkeypatch):
    """The VNF cannot fetch an unpublished chunk; it records the
    failure and the client's own fetch path still works for real
    content."""
    scenario = always_on_scenario(monkeypatch)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    manager = client.manager
    manager.register_content(content)
    scenario.sim.run(until=1.0)

    from repro.xcache import Chunk
    from repro.xia.dag import DagAddress

    edge = scenario.edges[0]
    ghost = Chunk.synthetic("ghost", 0, 1000)
    ghost_dag = DagAddress.content(
        ghost.cid, scenario.origin_router.nid, scenario.server_host.hid
    )
    edge.vnf._handle_one(
        ghost.cid, ghost_dag,
        DagAddress.host(scenario.client_host.hid, edge.router.nid),
    )
    scenario.sim.run(until=scenario.sim.now + 10.0)
    assert edge.vnf.stage_failures == 1
    assert not edge.store.has(ghost.cid)


def test_lost_confirmations_are_resignalled(monkeypatch):
    """STAGE_RESPONSEs can die on the air; the coordinator re-signals
    stale PENDING entries and the VNF answers from its store."""
    scenario = always_on_scenario(monkeypatch)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    manager = client.manager
    manager.register_content(content)
    scenario.sim.run(until=1.0)

    edge = scenario.edges[0]
    records = manager.profile.next_to_stage(1)
    manager.tracker.signal(records, manager.sensor.current_vnf_address())
    scenario.sim.run(until=scenario.sim.now + 8.0)
    assert records[0].staging_state is StagingState.READY

    # Now simulate a lost confirmation: force back to PENDING, stale.
    records[0].staging_state = StagingState.PENDING
    records[0].staging_requested_at = scenario.sim.now - 100.0
    manager.coordinator.tick()
    scenario.sim.run(until=scenario.sim.now + 3.0)
    assert records[0].staging_state is StagingState.READY
    assert manager.tracker.signals_sent >= 2


def test_edge_cache_pressure_never_evicts_pinned_staged_chunks(monkeypatch):
    """Staged chunks are pinned until served; cache churn cannot evict
    them (the continuity guarantee staging relies on)."""
    scenario = always_on_scenario(monkeypatch)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    manager = client.manager
    manager.register_content(content)
    scenario.sim.run(until=1.0)

    edge = scenario.edges[0]
    records = manager.profile.next_to_stage(2)
    manager.tracker.signal(records, manager.sensor.current_vnf_address())
    scenario.sim.run(until=scenario.sim.now + 8.0)
    assert all(edge.store.has(record.cid) for record in records)
    assert edge.store.pinned_count == len(records)

    # Churn the cache hard.
    from repro.xcache import Chunk

    for index in range(2000):
        edge.store.put(Chunk.synthetic("churn", index, 900_000))
    for record in records:
        assert edge.store.has(record.cid)
