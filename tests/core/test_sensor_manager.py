"""Tests for the Network Sensor and Staging Manager wiring."""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.mobility.coverage import alternating_coverage
from repro.util import MB


def make_scenario(with_vnf=True, coverage=None):
    params = MicrobenchParams(file_size=2 * MB, chunk_size=1 * MB,
                              packet_loss=0.05)
    return TestbedScenario(
        params=params, seed=6, with_vnf=with_vnf, coverage=coverage
    )


def test_sensor_tracks_current_vnf():
    scenario = make_scenario()
    client = scenario.make_client("softstage")
    sensor = client.manager.sensor
    assert sensor.current_vnf_address() is None  # offline
    scenario.sim.run(until=1.0)
    address = sensor.current_vnf_address()
    assert address is not None
    assert address.intent == scenario.edges[0].vnf.sid


def test_sensor_reports_no_vnf_when_absent():
    scenario = make_scenario(with_vnf=False)
    client = scenario.make_client("softstage")
    scenario.sim.run(until=1.0)
    assert scenario.controller.is_associated
    assert client.manager.sensor.current_vnf_address() is None


def test_sensor_observes_gaps_and_encounters():
    coverage = alternating_coverage(
        ["ap-A", "ap-B"], encounter_time=4.0, disconnection_time=3.0,
        total_time=60.0,
    )
    scenario = make_scenario(coverage=coverage)
    client = scenario.make_client("softstage")
    sensor = client.manager.sensor
    scenario.sim.run(until=20.0)
    # Two full cycles: gap and encounter EWMAs have samples near truth.
    assert sensor.gap_duration.samples >= 2
    assert sensor.gap_duration.value == pytest.approx(3.0, abs=0.8)
    assert sensor.encounter_duration.value == pytest.approx(4.0, abs=0.8)
    assert sensor.expected_gap(default=99.0) == pytest.approx(3.0, abs=0.8)


def test_sensor_expected_gap_default_before_observations():
    scenario = make_scenario()
    client = scenario.make_client("softstage")
    assert client.manager.sensor.expected_gap(default=16.0) == 16.0


def test_manager_wires_modules_onto_shared_profile():
    scenario = make_scenario()
    client = scenario.make_client("softstage")
    manager = client.manager
    assert manager.tracker.profile is manager.profile
    assert manager.coordinator.profile is manager.profile
    assert manager.chunk_manager.profile is manager.profile
    assert manager.chunk_manager.handoff_manager is manager.handoff_manager
    assert manager.handoff_manager.prestage is not None


def test_manager_register_content_populates_profile():
    scenario = make_scenario()
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    client.manager.register_content(content)
    assert len(client.manager.profile) == len(content.chunks)


def test_visible_networks_and_strongest():
    scenario = make_scenario()
    client = scenario.make_client("softstage")
    scenario.sim.run(until=1.0)
    sensor = client.manager.sensor
    assert [visible.name for visible in sensor.last_scan] == ["ap-A"]
