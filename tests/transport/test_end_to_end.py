"""Integration tests: chunk fetches over a small packet-level network.

Topology:  server -- core router -- edge router (cache) -- client
"""

import pytest

from repro.net import Host, Link, Network
from repro.net.loss import BernoulliLoss
from repro.sim import RandomStreams, Simulator
from repro.transport import (
    KERNEL_TCP,
    TransportConfig,
    TransportEndpoint,
    XIA_CHUNK,
    CacheDaemon,
    ChunkFetcher,
)
from repro.transport.xchunkp import XChunkPClient
from repro.transport.xstream import XstreamClient
from repro.util import MB, mbps, ms
from repro.xcache import ContentPublisher, ContentStore
from repro.xia import HID, NID
from repro.xia.router import XIARouter


class SmallTopology:
    """server -- core -- edge(cache) -- client, all wired."""

    def __init__(self, seed=0, internet_loss=0.0, config=XIA_CHUNK):
        self.sim = Simulator()
        streams = RandomStreams(seed)
        self.net = Network(self.sim, streams)

        self.server = self.net.add_device(
            Host(self.sim, "server", HID("server"))
        )
        self.core = self.net.add_device(
            XIARouter(self.sim, "core", HID("core"), NID("core-net"))
        )
        self.edge = self.net.add_device(
            XIARouter(self.sim, "edge", HID("edge"), NID("edge-net"))
        )
        self.edge.content_store = ContentStore()
        self.client = self.net.add_device(
            Host(self.sim, "client", HID("client"))
        )

        loss = (
            BernoulliLoss(internet_loss, streams.stream("internet-loss"))
            if internet_loss
            else None
        )
        self.net.connect(
            self.server, self.core,
            Link(self.sim, "server-core", mbps(100), ms(5),
                 loss_a_to_b=loss, loss_b_to_a=loss),
        )
        self.net.connect(
            self.core, self.edge,
            Link(self.sim, "core-edge", mbps(100), ms(1)),
        )
        self.net.connect(
            self.edge, self.client,
            Link(self.sim, "edge-client", mbps(50), ms(1)),
        )
        self.net.register_network(self.core.nid, self.core)
        self.net.register_network(self.edge.nid, self.edge)
        # The server lives behind the core router's network.
        self.net.build_static_routes()
        # Client is wired here: make its HID routable at the edge.
        self.edge.engine.set_hid_route(
            self.client.hid, self.net.port_toward(self.edge, self.client)
        )
        self.client.port_nids[self.client.port(0)] = self.edge.nid

        # Publish content at the origin.
        self.origin_store = ContentStore()
        self.publisher = ContentPublisher(
            self.origin_store, self.core.nid, self.server.hid
        )
        self.server_endpoint = TransportEndpoint(self.sim, self.server, config)
        self.daemon = CacheDaemon(
            self.sim, self.server, self.origin_store, self.server_endpoint,
            nid=self.core.nid,
        )
        self.client_endpoint = TransportEndpoint(self.sim, self.client, config)

        # Edge cache daemon (for staged-chunk tests).
        self.edge_endpoint = TransportEndpoint(self.sim, self.edge, config)
        self.edge_daemon = CacheDaemon(
            self.sim, self.edge, self.edge.content_store, self.edge_endpoint
        )


def run_fetch(topo, address):
    fetcher = ChunkFetcher(topo.sim, topo.client_endpoint)
    process = topo.sim.process(fetcher.fetch(address))
    return topo.sim.run(until=process)


def test_fetch_single_chunk_from_origin():
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("file", 200_000, 200_000)
    outcome = run_fetch(topo, content.addresses[0])
    assert outcome.bytes_received == 200_000
    assert outcome.served_by_hid == topo.server.hid
    assert outcome.duration > 0


def test_fetch_served_from_edge_cache_when_staged():
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("file", 200_000, 200_000)
    # Stage the chunk at the edge cache.
    topo.edge.content_store.put(content.chunks[0])
    outcome = run_fetch(topo, content.addresses[0])
    assert outcome.served_by_hid == topo.edge.hid
    assert outcome.bytes_received == 200_000


def test_edge_fetch_is_faster_than_origin_fetch():
    origin_topo = SmallTopology()
    content = origin_topo.publisher.publish_synthetic("file", 1 * MB, 1 * MB)
    origin_outcome = run_fetch(origin_topo, content.addresses[0])

    edge_topo = SmallTopology()
    content2 = edge_topo.publisher.publish_synthetic("file", 1 * MB, 1 * MB)
    edge_topo.edge.content_store.put(content2.chunks[0])
    edge_outcome = run_fetch(edge_topo, content2.addresses[0])

    assert edge_outcome.duration < origin_outcome.duration


def test_fetch_completes_under_heavy_loss():
    topo = SmallTopology(internet_loss=0.10)
    content = topo.publisher.publish_synthetic("file", 500_000, 500_000)
    outcome = run_fetch(topo, content.addresses[0])
    assert outcome.bytes_received == 500_000


def test_fetch_unpublished_chunk_times_out(monkeypatch):
    from repro.errors import TransportError
    from repro.xcache import Chunk
    from repro.xia.dag import DagAddress

    monkeypatch.setattr(TransportConfig, "request_retries", 2)
    monkeypatch.setattr(TransportConfig, "request_timeout", 0.2)
    topo = SmallTopology()
    ghost = Chunk.synthetic("ghost", 0, 1000)
    address = DagAddress.content(ghost.cid, topo.core.nid, topo.server.hid)
    fetcher = ChunkFetcher(topo.sim, topo.client_endpoint)
    process = topo.sim.process(fetcher.fetch(address))
    with pytest.raises(TransportError):
        topo.sim.run(until=process)


def test_xchunkp_download_whole_content():
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("movie", 2 * MB, 500_000)
    client = XChunkPClient(topo.sim, topo.client_endpoint, XIA_CHUNK)
    process = topo.sim.process(client.download(content))
    result = topo.sim.run(until=process)
    assert result.bytes_received == 2 * MB  # all four chunks, each once
    assert result.throughput_bps > mbps(1)


def test_xstream_download():
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("blob", 2 * MB, 2 * MB)
    client = XstreamClient(topo.sim, topo.client_endpoint, XIA_CHUNK)
    process = topo.sim.process(client.download(content.addresses[0]))
    result = topo.sim.run(until=process)
    assert result.bytes_received == 2 * MB
    assert result.throughput_bps > mbps(1)


def test_tcp_config_faster_than_xia_on_clean_path():
    def run(config):
        topo = SmallTopology(config=config)
        content = topo.publisher.publish_synthetic("blob", 2 * MB, 2 * MB)
        client = XstreamClient(topo.sim, topo.client_endpoint, config)
        process = topo.sim.process(client.download(content.addresses[0]))
        return topo.sim.run(until=process)

    tcp = run(KERNEL_TCP)
    xia = run(XIA_CHUNK)
    assert tcp.throughput_bps > xia.throughput_bps


def test_duplicate_requests_do_not_double_serve(monkeypatch):
    monkeypatch.setattr(TransportConfig, "request_timeout", 0.001)  # hammer retries
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("file", 100_000, 100_000)
    fetcher = ChunkFetcher(topo.sim, topo.client_endpoint)
    process = topo.sim.process(fetcher.fetch(content.addresses[0]))
    outcome = topo.sim.run(until=process)
    assert outcome.bytes_received == 100_000
    # One stream left the server: every DATA segment once, no second
    # session behind a re-sent request.
    segments = -(-100_000 // XIA_CHUNK.mss_bytes)
    assert topo.server.port(0).link.forward.stats.sent_packets == segments


def test_packet_trace_goes_through_routers():
    topo = SmallTopology()
    content = topo.publisher.publish_synthetic("file", 50_000, 50_000)
    outcome = run_fetch(topo, content.addresses[0])
    assert outcome.bytes_received == 50_000
    # The edge and core forwarded packets both ways.
    assert topo.edge.forwarded_packets > 0
    assert topo.core.forwarded_packets > 0
