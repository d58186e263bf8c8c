"""Tests for the bandwidth shaper, routing and topology helpers."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.net import Host, Link, Network
from repro.net.emulation import BandwidthShaper, loss_rate_for_wired_target
from repro.sim import RandomStreams, Simulator
from repro.util import mbps, ms
from repro.xia import HID, NID
from repro.xia.router import XIARouter


# ---------------------------------------------------------------------------
# Shaper
# ---------------------------------------------------------------------------


def test_wired_target_table_interpolation_monotone():
    rates = [
        loss_rate_for_wired_target(mbps(value))
        for value in (60, 45, 30, 20, 15, 8, 2)
    ]
    assert rates == sorted(rates)  # slower target -> more loss
    assert rates[0] > 0


def test_wired_target_above_max_needs_no_loss():
    assert loss_rate_for_wired_target(mbps(70)) == 0.0


def test_wired_target_below_table_clamps():
    assert loss_rate_for_wired_target(1.0) == pytest.approx(0.1)


def shaper_rate(target_mbps):
    rng = RandomStreams(0).stream("s")
    return BandwidthShaper(target_bps=mbps(target_mbps), rng=rng).rate


def test_shaper_unshaped_at_max():
    assert shaper_rate(60) == 0.0


def test_shaper_shapes_below_max():
    # Table III's two shaped targets, to the bit: every Fig. 6(e)
    # golden rides on these drop rates.
    assert shaper_rate(30) == 0.013135511959520634
    assert shaper_rate(15) == 0.020844599879942336


# ---------------------------------------------------------------------------
# Topology / routing
# ---------------------------------------------------------------------------


def line_network():
    """hostA - r1 - r2 - hostB."""
    sim = Simulator()
    net = Network(sim)
    host_a = net.add_device(Host(sim, "hostA", HID("hostA")))
    r1 = net.add_device(XIARouter(sim, "r1", HID("r1"), NID("net1")))
    r2 = net.add_device(XIARouter(sim, "r2", HID("r2"), NID("net2")))
    host_b = net.add_device(Host(sim, "hostB", HID("hostB")))
    net.connect(host_a, r1, Link(sim, "a-r1", mbps(100), ms(1)))
    net.connect(r1, r2, Link(sim, "r1-r2", mbps(100), ms(1)))
    net.connect(r2, host_b, Link(sim, "r2-b", mbps(100), ms(1)))
    net.register_network(r1.nid, r1)
    net.register_network(r2.nid, r2)
    net.build_static_routes()
    return sim, net, host_a, r1, r2, host_b


def test_static_routes_install_nid_and_hid_tables():
    _, net, host_a, r1, r2, host_b = line_network()
    # r1 routes net2 toward r2 and vice versa.
    assert r1.engine.routes[r2.nid].peer.device is r2
    assert r2.engine.routes[r1.nid].peer.device is r1
    # Wired hosts' HIDs installed at their adjacent routers.
    assert r1.engine.routes[host_a.hid].peer.device is host_a
    assert r2.engine.routes[host_b.hid].peer.device is host_b
    # And the hosts learned their network.
    assert host_a.port_nids[host_a.port(0)] == r1.nid


def test_port_toward_and_link_between():
    _, net, host_a, r1, r2, host_b = line_network()
    assert net.port_toward(r1, r2).peer.device is r2
    assert net.port_toward(r1, r2).link.name == "r1-r2"
    with pytest.raises(RoutingError):
        net.port_toward(host_a, host_b)


def test_duplicate_device_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_device(Host(sim, "x", HID("x")))
    with pytest.raises(ConfigurationError):
        net.add_device(Host(sim, "x", HID("y")))


def test_duplicate_network_registration_rejected():
    sim = Simulator()
    net = Network(sim)
    router = net.add_device(XIARouter(sim, "r", HID("r"), NID("n")))
    net.register_network(router.nid, router)
    with pytest.raises(ConfigurationError):
        net.register_network(router.nid, router)


def test_connect_requires_added_devices():
    sim = Simulator()
    net = Network(sim)
    a = Host(sim, "a", HID("a"))
    b = net.add_device(Host(sim, "b", HID("b")))
    with pytest.raises(ConfigurationError):
        net.connect(a, b, Link(sim, "l", mbps(10), 0.0))


def test_router_forwards_end_to_end():
    sim, net, host_a, r1, r2, host_b = line_network()
    from repro.xia import DagAddress
    from repro.xia.packet import Packet, PacketType

    got = []
    host_b.register_handler(PacketType.CONTROL, lambda p, port: got.append(p))
    packet = Packet(
        PacketType.CONTROL,
        dst=DagAddress.host(host_b.hid, r2.nid),
        src=DagAddress.host(host_a.hid, r1.nid),
        payload={},
    )
    host_a.send(packet)
    sim.run()
    assert len(got) == 1
    # One packet crossed all three links host A -> r1 -> r2 -> host B.
    assert [(link.name, link.forward.stats.delivered_packets,
             link.backward.stats.delivered_packets) for link in net.links] == [
        ("a-r1", 1, 0), ("r1-r2", 1, 0), ("r2-b", 1, 0)]


def test_unroutable_packet_counted():
    sim, net, host_a, r1, r2, host_b = line_network()
    from repro.xia import DagAddress
    from repro.xia.packet import Packet, PacketType

    packet = Packet(
        PacketType.CONTROL,
        dst=DagAddress.host(HID("ghost"), NID("ghost-net")),
        src=DagAddress.host(host_a.hid, r1.nid),
        payload={},
    )
    host_a.send(packet)
    sim.run()
    assert r1.dropped_unroutable == 1
