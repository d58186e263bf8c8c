"""The stdlib router against ``networkx``, its predecessor.

``Network`` used to compute wired routes with
``networkx.all_pairs_dijkstra_path``; it now runs its own Dijkstra.
Next hops may not move, so where ``networkx`` is installed these tests
hold the new path tables to the old ones — including which of several
equal-cost paths wins.  The package is only this reference: nothing
under ``src/`` imports it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import xia_benchmark
from repro.experiments.scenario import TestbedScenario
from repro.net.link import Link
from repro.net.nodes import Device
from repro.net.topology import Network
from repro.net.wireless import WirelessLink
from repro.sim import Simulator
from repro.transport.config import XIA_STREAM
from repro.util import mbps
from tests.net.test_emulation_topology import line_network

nx = pytest.importorskip("networkx")


def _reference_graph(net: Network):
    """The wired graph as the ``networkx`` implementation built it."""
    graph = nx.Graph()
    for device in net.devices.values():
        graph.add_node(device.name)
    for dev_a, dev_b, link in net._adjacency:
        if isinstance(link, WirelessLink):
            continue
        graph.add_edge(dev_a.name, dev_b.name, delay=link.propagation_delay)
    return graph


def assert_routes_like_networkx(net: Network) -> None:
    graph = _reference_graph(net)
    reference = dict(nx.all_pairs_dijkstra_path(graph, weight="delay"))
    assert {name: net._wired_paths(name) for name in net.devices} == reference


@pytest.fixture
def routed(monkeypatch):
    """Every network that computes its static routes while in use."""
    seen = []
    build = Network.build_static_routes

    def recording(self):
        seen.append(self)
        build(self)

    monkeypatch.setattr(Network, "build_static_routes", recording)
    return seen


@pytest.mark.parametrize("num_edges", [1, 2, 3, 4])
def test_testbed_routes_are_the_networkx_routes(routed, num_edges):
    TestbedScenario(num_edges=num_edges)
    (net,) = routed
    assert_routes_like_networkx(net)


@pytest.mark.parametrize("segment", ["wired", "wireless"])
def test_fig5_routes_are_the_networkx_routes(routed, segment):
    xia_benchmark._build_segment(segment, XIA_STREAM, seed=1)
    (net,) = routed
    assert_routes_like_networkx(net)


def test_line_topology_routes_are_the_networkx_routes():
    _, net, *_ = line_network()
    assert_routes_like_networkx(net)


@st.composite
def _small_graphs(draw):
    """``(node count, [(a, b, delay, wireless)])`` over ≤ 8 nodes.

    Three delays whose sums collide exactly (1 + 2 == 3, 1 + 1 == 2),
    so most drawn graphs hold equal-cost paths.
    """
    nodes = draw(st.integers(1, 8))
    node = st.integers(0, nodes - 1)
    edge = st.tuples(
        node, node, st.sampled_from([1.0, 2.0, 3.0]),
        st.sampled_from([False, False, False, True]),
    )
    return nodes, draw(st.lists(edge, max_size=24))


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_any_small_graph_routes_like_networkx(graph):
    nodes, edges = graph
    sim = Simulator()
    net = Network(sim)
    devices = [net.add_device(Device(sim, f"d{i}")) for i in range(nodes)]
    for index, (a, b, delay, wireless) in enumerate(edges):
        if a == b:
            continue
        if wireless:
            link = WirelessLink(sim, f"l{index}", mac_rate_bps=mbps(54),
                                delay=delay)
        else:
            link = Link(sim, f"l{index}", mbps(100), delay)
        net.connect(devices[a], devices[b], link)
    assert_routes_like_networkx(net)
