"""Integration tests: Staging Tracker <-> Staging VNF over the testbed."""

import pytest

from repro.core.states import StagingState
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.mobility.coverage import Coverage, CoverageWindow
from repro.util import MB


def always_on_scenario(**param_overrides):
    """Client permanently attached to edge A."""
    params = MicrobenchParams(
        file_size=4 * MB, chunk_size=1 * MB, packet_loss=0.05,
        **param_overrides,
    )
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 100_000.0)])
    return TestbedScenario(params=params, seed=5, coverage=coverage)


def attach_and_register(scenario):
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    manager = client.manager
    manager.register_content(content)
    scenario.sim.run(until=1.0)  # let the scanner attach the client
    assert scenario.controller.is_associated
    return content, client, manager


def test_signal_marks_pending_and_response_marks_ready():
    scenario = always_on_scenario()
    content, client, manager = attach_and_register(scenario)
    records = manager.profile.next_to_stage(2)
    vnf_address = manager.sensor.current_vnf_address()
    assert vnf_address is not None

    sent = manager.tracker.signal(records, vnf_address)
    assert sent == 2
    assert all(r.staging_state is StagingState.PENDING for r in records)

    scenario.sim.run(until=scenario.sim.now + 10.0)
    assert all(r.staging_state is StagingState.READY for r in records)
    edge = scenario.edges[0]
    assert edge.vnf.chunks_staged == 2
    for record in records:
        assert edge.store.has(record.cid)
        assert record.location == (edge.router.nid, edge.router.hid)
        assert record.new_dag.routes[-1] == (
            edge.router.nid, edge.router.hid)


def test_staging_latency_and_rtt_reported():
    scenario = always_on_scenario()
    content, client, manager = attach_and_register(scenario)
    records = manager.profile.next_to_stage(1)
    manager.tracker.signal(records, manager.sensor.current_vnf_address())
    scenario.sim.run(until=scenario.sim.now + 10.0)
    record = records[0]
    assert record.staging_latency > 0
    assert record.fetch_rtt is not None and record.fetch_rtt > 0
    assert manager.profile.staging_latency.samples == 1
    # The control RTT over one wireless hop is far below the staging
    # latency across the Internet.
    assert record.fetch_rtt < record.staging_latency


def test_duplicate_signal_answered_from_store():
    scenario = always_on_scenario()
    content, client, manager = attach_and_register(scenario)
    records = manager.profile.next_to_stage(1)
    vnf_address = manager.sensor.current_vnf_address()
    manager.tracker.signal(records, vnf_address)
    scenario.sim.run(until=scenario.sim.now + 10.0)
    edge = scenario.edges[0]
    assert edge.vnf.chunks_staged == 1

    # Re-signal the same chunk (e.g. the READY response was lost).
    records[0].staging_state = StagingState.PENDING
    manager.tracker.signal(records, vnf_address)
    scenario.sim.run(until=scenario.sim.now + 10.0)
    # Answered immediately from the store: no new origin fetch.
    assert edge.vnf.chunks_staged == 1
    assert records[0].staging_state is StagingState.READY


def test_vnf_shares_staged_chunk_across_clients():
    """A chunk staged for one client serves another's signal instantly."""
    scenario = always_on_scenario()
    content, client, manager = attach_and_register(scenario)
    edge = scenario.edges[0]
    # Pre-stage via a direct put (as if another client staged it).
    chunk = content.chunks[0]
    edge.store.put(chunk, pin=True)
    records = [manager.profile.get(chunk.cid)]
    manager.tracker.signal(records, manager.sensor.current_vnf_address())
    scenario.sim.run(until=scenario.sim.now + 2.0)
    assert records[0].staging_state is StagingState.READY
    assert edge.vnf.chunks_staged == 0  # never had to fetch


def test_stale_response_for_unknown_cid_ignored():
    scenario = always_on_scenario()
    content, client, manager = attach_and_register(scenario)
    from repro.xcache import Chunk
    from repro.xia.dag import DagAddress
    from repro.xia.packet import Packet, PacketType

    ghost = Chunk.synthetic("ghost", 0, 1000)
    packet = Packet(
        PacketType.STAGE_RESPONSE,
        dst=DagAddress.host(scenario.client_host.hid),
        src=DagAddress.host(scenario.edges[0].router.hid),
        payload={"cid": ghost.cid, "nid": scenario.edges[0].router.nid,
                 "hid": scenario.edges[0].router.hid,
                 "staging_latency": 0.1},
    )
    manager.tracker.on_response(packet, None)
    assert manager.tracker.stale_responses == 1


def test_vnf_ignores_non_stage_packets():
    scenario = always_on_scenario()
    attach_and_register(scenario)
    edge = scenario.edges[0]
    from repro.obs.events import StageRequestReceived
    from repro.xia.dag import DagAddress
    from repro.xia.packet import Packet, PacketType

    requests = []
    scenario.sim.probe.bus.subscribe(StageRequestReceived, requests.append)
    bogus = Packet(
        PacketType.CONTROL,
        dst=DagAddress.host(edge.router.hid),
        src=DagAddress.host(scenario.client_host.hid),
        payload={},
    )
    edge.vnf.handle_packet(bogus, None)
    assert requests == []
