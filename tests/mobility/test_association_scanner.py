"""Integration tests: association control + scanning on the testbed."""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.mobility.coverage import Coverage, CoverageWindow, alternating_coverage
from repro.util import MB


def make_scenario(coverage=None, **overrides):
    params = MicrobenchParams(
        file_size=2 * MB, chunk_size=1 * MB, packet_loss=0.05, **overrides
    )
    return TestbedScenario(params=params, seed=4, coverage=coverage)


def test_scanner_sees_coverage_and_advertisements():
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 50.0)])
    scenario = make_scenario(coverage=coverage)
    scenario.scanner.start()
    scenario.sim.run(until=1.0)
    visible = scenario.scanner.visible_now()
    assert [v.name for v in visible] == ["ap-A"]
    assert visible[0].ap.vnf_sid is not None
    assert visible[0].ap.nid == scenario.edges[0].router.nid


def test_association_brings_link_up_and_routes_hid():
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 50.0)])
    scenario = make_scenario(coverage=coverage)
    controller = scenario.controller
    process = scenario.sim.process(controller.associate("ap-A"))
    scenario.sim.run(until=process)
    assert controller.is_associated
    assert scenario.client_host.current_nid == scenario.edges[0].router.nid
    gateway = scenario.edges[0].router
    assert scenario.client_host.hid in gateway.engine.routes


def test_disassociate_withdraws_route_and_downs_link():
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 50.0)])
    scenario = make_scenario(coverage=coverage)
    controller = scenario.controller
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    controller.disassociate()
    assert not controller.is_associated
    gateway = scenario.edges[0].router
    assert scenario.client_host.hid not in gateway.engine.routes
    assert scenario.client_host.current_nid is None


def test_scanner_enforces_coverage_loss():
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 5.0)])
    scenario = make_scenario(coverage=coverage)
    scenario.scanner.start()
    controller = scenario.controller
    detached = []
    controller.on_detach(detached.append)
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    assert controller.is_associated
    scenario.sim.run(until=6.0)
    # Coverage ended at t=5: the scanner forced a disassociation.
    assert not controller.is_associated
    assert len(detached) == 1


def test_attach_listeners_and_waiters_fire():
    coverage = Coverage([CoverageWindow("ap-A", 1.0, 50.0)])
    scenario = make_scenario(coverage=coverage)
    controller = scenario.controller
    events = []
    controller.on_attach(lambda a: events.append(("attach", a.ap.name)))
    controller.on_detach(lambda a: events.append(("detach", a.ap.name)))

    waiter = controller.wait_attached()
    assert waiter is not None

    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    assert waiter.triggered
    assert controller.wait_attached() is None  # already online
    controller.disassociate()
    assert events == [("attach", "ap-A"), ("detach", "ap-A")]


def test_switching_aps_reroutes_and_changes_active_port():
    scenario = make_scenario(
        coverage=alternating_coverage(["ap-A", "ap-B"], 10.0, 0.0, 100.0)
    )
    controller = scenario.controller
    events = []
    controller.on_attach(lambda a: events.append(("attach", a.ap.name)))
    controller.on_detach(lambda a: events.append(("detach", a.ap.name)))
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    port_a = scenario.client_host.active_port
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-B")))
    assert controller.current_ap_name == "ap-B"
    assert scenario.client_host.active_port is not port_a
    gateway_a = scenario.edges[0].router
    gateway_b = scenario.edges[1].router
    assert scenario.client_host.hid not in gateway_a.engine.routes
    assert scenario.client_host.hid in gateway_b.engine.routes
    assert events == [("attach", "ap-A"), ("detach", "ap-A"), ("attach", "ap-B")]


def test_associate_same_ap_is_noop():
    coverage = Coverage([CoverageWindow("ap-A", 0.0, 50.0)])
    scenario = make_scenario(coverage=coverage)
    controller = scenario.controller
    attached = []
    controller.on_attach(attached.append)
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    scenario.sim.run(until=scenario.sim.process(controller.associate("ap-A")))
    assert len(attached) == 1


def test_associate_unknown_ap_raises():
    from repro.errors import ConfigurationError

    scenario = make_scenario(
        coverage=Coverage([CoverageWindow("ap-A", 0.0, 50.0)])
    )
    with pytest.raises(ConfigurationError):
        # The generator raises on creation inside process start.
        process = scenario.sim.process(
            scenario.controller.associate("ap-nope")
        )
        scenario.sim.run(until=process)


def test_scan_results_sorted_by_rss():
    coverage = Coverage([
        CoverageWindow("ap-A", 0.0, 50.0, rss_start=-70.0, rss_end=-70.0),
        CoverageWindow("ap-B", 0.0, 50.0, rss_start=-55.0, rss_end=-55.0),
    ])
    scenario = make_scenario(coverage=coverage)
    scenario.scanner.start()
    scenario.sim.run(until=0.1)
    visible = scenario.scanner.visible_now()
    assert [v.name for v in visible] == ["ap-B", "ap-A"]
