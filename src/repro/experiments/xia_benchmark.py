"""Fig. 5: the XIA substrate benchmark.

Throughput of a 10 MB transfer for Linux TCP (iPerf analogue), Xstream
and XChunkP (2 MB chunks) over a wired and an 802.11n segment — the
six bars of the paper's Fig. 5.  This bench doubles as the calibration
check for every hardware stand-in constant (see
:mod:`repro.experiments.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import calibration
from repro.net import Host, Link, Network, WirelessLink
from repro.net.processing import ProcessingModel
from repro.sim import RandomStreams, Simulator
from repro.transport import KERNEL_TCP, XIA_CHUNK, XIA_STREAM, TransportConfig
from repro.transport.chunkfetch import CacheDaemon
from repro.transport.reliable import TransportEndpoint
from repro.transport.xchunkp import XChunkPClient
from repro.transport.xstream import XstreamClient
from repro.util import MB, mbps
from repro.xcache import ContentPublisher, ContentStore
from repro.xia import HID, NID
from repro.xia.router import XIARouter

#: The numbers the paper reports (Mbps), for side-by-side rendering.
PAPER_FIG5 = {
    ("wired", "linux-tcp"): 95.0,
    ("wired", "xstream"): 66.0,
    ("wired", "xchunkp"): 56.0,
    ("wireless", "linux-tcp"): 28.0,
    ("wireless", "xstream"): 22.0,
    ("wireless", "xchunkp"): 19.0,
}


@dataclass
class BenchmarkPoint:
    segment: str
    protocol: str
    throughput_bps: float
    paper_mbps: float


def _build_segment(segment: str, config: TransportConfig, seed: int):
    sim = Simulator()
    net = Network(sim, RandomStreams(seed))
    server = net.add_device(Host(sim, "server", HID("server")))
    router = net.add_device(
        XIARouter(
            sim, "router", HID("router"), NID("bench-net"),
            processing=ProcessingModel(sim, calibration.ROUTER_FORWARD_COST_S),
        )
    )
    client = net.add_device(Host(sim, "client", HID("client")))
    net.connect(
        server, router,
        Link(sim, "server-router", mbps(1000), calibration.WIRED_HOP_DELAY_S),
    )
    if segment == "wired":
        access = Link(
            sim, "router-client",
            calibration.WIRED_SEGMENT_BPS, calibration.WIRED_HOP_DELAY_S,
        )
    else:
        access = WirelessLink(
            sim, "router-client",
            mac_rate_bps=calibration.WIRELESS_PHY_BPS,
            delay=calibration.WIRELESS_BASE_DELAY_S,
            max_retries=calibration.ARQ_MAX_RETRIES,
            retry_backoff=calibration.ARQ_RETRY_BACKOFF_S,
            frame_overhead=calibration.WIRELESS_FRAME_OVERHEAD_S,
        )
    net.connect(router, client, access)
    net.register_network(router.nid, router)
    net.build_static_routes()
    router.engine.set_hid_route(client.hid, net.port_toward(router, client))
    client.port_nids[client.port(0)] = router.nid

    store = ContentStore()
    publisher = ContentPublisher(store, router.nid, server.hid)
    server_endpoint = TransportEndpoint(sim, server, config)
    CacheDaemon(sim, server, store, server_endpoint, nid=router.nid)
    client_endpoint = TransportEndpoint(sim, client, config)
    return sim, publisher, client_endpoint


def run_protocol(segment: str, protocol: str, seed: int = 1) -> BenchmarkPoint:
    """One bar of Fig. 5: a 10 MB transfer (XChunkP in 2 MB chunks)."""
    file_size, chunk_size = 10 * MB, 2 * MB
    configs = {
        "linux-tcp": KERNEL_TCP,
        "xstream": XIA_STREAM,
        "xchunkp": XIA_CHUNK,
    }
    config = configs[protocol]
    sim, publisher, endpoint = _build_segment(segment, config, seed)
    if protocol == "xchunkp":
        content = publisher.publish_synthetic("bench", file_size, chunk_size)
        client = XChunkPClient(sim, endpoint, config)
        process = sim.process(client.download(content))
    else:
        content = publisher.publish_synthetic("bench", file_size, file_size)
        client = XstreamClient(sim, endpoint, config)
        process = sim.process(client.download(content.addresses[0]))
    result = sim.run(until=process)
    return BenchmarkPoint(
        segment=segment,
        protocol=protocol,
        throughput_bps=result.throughput_bps,
        paper_mbps=PAPER_FIG5[(segment, protocol)],
    )


def run_all(seed: int = 1) -> list[BenchmarkPoint]:
    """All six bars of Fig. 5."""
    return [
        run_protocol(segment, protocol, seed=seed)
        for segment in ("wired", "wireless")
        for protocol in ("linux-tcp", "xstream", "xchunkp")
    ]
