"""The evaluation testbed (paper Fig. 4), in one object.

Builds the packet-level topology every §IV experiment runs on::

    server -- origin router == Internet segment == core router
                                                      |
                                   +------------------+---------+
                                 edge A             edge B    (...)
                                 (XCache+VNF)       (XCache+VNF)
                                   |                  |
                                  AP A               AP B
                                   )))               (((
                                        mobile client

The Internet segment carries the configured latency and is shaped to
the target bandwidth *by loss* (the paper's NIC-loss emulation); each
access link is an 802.11n channel with bursty fading at the configured
loss rate; the client owns one wireless port per AP plus the logical
sensor radio (the Scanner).
"""

from __future__ import annotations

from typing import Optional

from repro.apps.ftp import XftpClient
from repro.apps.server import ContentServer
from repro.baselines.endtoend import EndToEndClient
from repro.core.client import MobileClient, SoftStageClient
from repro.core.handoff import HandoffPolicy
from repro.core.policy import StagingPolicy
from repro.core.vnf import StagingVNF
from repro.errors import ConfigurationError
from repro.experiments import calibration
from repro.experiments.params import MicrobenchParams
from repro.mobility.association import AccessPointInfo, AssociationController
from repro.mobility.coverage import Coverage, alternating_coverage
from repro.mobility.scanner import Scanner
from repro.net.emulation import BandwidthShaper
from repro.net.link import Link
from repro.net.loss import GilbertElliottLoss
from repro.net.nodes import Host
from repro.net.processing import ProcessingModel
from repro.net.topology import Network
from repro.net.wireless import WirelessLink
from repro.sim import RandomStreams, Simulator
from repro.transport.config import XIA_CHUNK
from repro.transport.reliable import TransportEndpoint
from repro.xcache.publisher import PublishedContent
from repro.xcache.store import ContentStore
from repro.xia.ids import HID, NID, SID
from repro.xia.netjoin import AdvertisementDirectory, NetworkAdvertisement
from repro.xia.router import AccessPoint, XIARouter


#: The compared systems: name -> client class.  ``endtoend`` expects
#: single-chunk content (``run_download`` publishes it that way).
SYSTEMS: dict[str, type[MobileClient]] = {
    "softstage": SoftStageClient,
    "xftp": XftpClient,
    "endtoend": EndToEndClient,
}


def system_class(system: str) -> type[MobileClient]:
    """The client class of a system name, or a ConfigurationError."""
    try:
        return SYSTEMS[system]
    except KeyError:
        raise ConfigurationError(f"unknown system {system!r}") from None


class EdgeNetwork:
    """One edge network: router+XCache(+VNF) and its access point."""

    def __init__(self, name: str, router: XIARouter, ap: AccessPoint, store: ContentStore):
        self.name = name
        self.router = router
        self.ap = ap
        self.store = store
        self.vnf: Optional[StagingVNF] = None
        self.endpoint: Optional[TransportEndpoint] = None


class TestbedScenario:
    """A fully-wired instance of the evaluation testbed."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        params: Optional[MicrobenchParams] = None,
        seed: int = 0,
        num_edges: int = 2,
        coverage: Optional[Coverage] = None,
        with_vnf: bool = True,
    ) -> None:
        self.params = params or MicrobenchParams()
        self.seed = seed
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        self.sim.probe.run_id = f"seed{seed}"
        self.network = Network(self.sim, self.streams)
        self.with_vnf = with_vnf
        self.transport_config = XIA_CHUNK.with_(
            migration_delay=calibration.MIGRATION_DELAY_S
        )
        self._client_made = False

        self._build_core(num_edges)
        self.coverage = coverage if coverage is not None else alternating_coverage(
            [edge.ap.name for edge in self.edges],
            encounter_time=self.params.encounter_time,
            disconnection_time=self.params.disconnection_time,
            total_time=24 * 3600.0,
        )
        self._build_client()

    # -- topology ----------------------------------------------------------

    def _router(self, name: str) -> XIARouter:
        return XIARouter(
            self.sim,
            name,
            HID(name),
            NID(f"{name}-net"),
            processing=ProcessingModel(
                self.sim, calibration.ROUTER_FORWARD_COST_S
            ),
        )

    def _build_core(self, num_edges: int) -> None:
        if num_edges < 1:
            raise ConfigurationError("need at least one edge network")
        sim, net, params = self.sim, self.network, self.params

        self.server_host = net.add_device(Host(sim, "server", HID("server")))
        self.origin_router = net.add_device(self._router("origin"))
        self.core_router = net.add_device(self._router("core"))
        net.register_network(self.origin_router.nid, self.origin_router)
        net.register_network(self.core_router.nid, self.core_router)

        net.connect(
            self.server_host,
            self.origin_router,
            Link(sim, "server-origin", calibration.INTERNET_BASE_BPS,
                 calibration.WIRED_HOP_DELAY_S),
        )

        # The Internet segment: latency + loss-shaped bandwidth.  Per
        # the paper's methodology the drop rate is the one measured at
        # the *raw wired* RTT (the bandwidth targets were measured
        # "without introducing any extra latency"), so the configured
        # Internet latency then punishes long-RTT flows on top.
        shaper_rng = self.streams.stream("internet-shaper")
        def make_shaper():
            return BandwidthShaper(
                target_bps=params.internet_bandwidth, rng=shaper_rng
            )
        self.internet_link = Link(
            sim,
            "internet",
            calibration.INTERNET_BASE_BPS,
            params.internet_latency / 2,
            loss_a_to_b=make_shaper(),
            loss_b_to_a=make_shaper(),
            queue_bytes=2_000_000,
        )
        net.connect(self.origin_router, self.core_router, self.internet_link)

        # Edge networks.
        self.edges: list[EdgeNetwork] = []
        for index in range(num_edges):
            name = chr(ord("A") + index)
            router = net.add_device(self._router(f"edge-{name}"))
            net.register_network(router.nid, router)
            store = ContentStore(
                capacity_bytes=1_000_000_000,
                probe=sim.probe,
                name=f"xcache-{name}",
            )
            router.content_store = store
            ap = net.add_device(
                AccessPoint(sim, f"ap-{name}", HID(f"ap-{name}"))
            )
            net.connect(
                self.core_router, router,
                Link(sim, f"core-edge{name}", calibration.INTERNET_BASE_BPS,
                     calibration.WIRED_HOP_DELAY_S),
            )
            net.connect(
                router, ap,
                Link(sim, f"edge{name}-ap", calibration.INTERNET_BASE_BPS,
                     calibration.WIRED_HOP_DELAY_S),
            )
            edge = EdgeNetwork(name=f"ap-{name}", router=router, ap=ap, store=store)
            edge.endpoint = TransportEndpoint(sim, router, self.transport_config)
            from repro.transport.chunkfetch import CacheDaemon

            CacheDaemon(sim, router, store, edge.endpoint, unpin_on_serve=True)
            if self.with_vnf:
                edge.vnf = StagingVNF(
                    sim, router, store, edge.endpoint,
                    sid=SID(f"staging-vnf:{name}"),
                )
            self.edges.append(edge)

        net.build_static_routes()
        self.server = ContentServer(
            sim, self.server_host, self.origin_router.nid,
            config=self.transport_config,
        )

    def _build_client(self) -> None:
        sim, net, params = self.sim, self.network, self.params
        self.client_host = net.add_device(Host(sim, "client", HID("client")))
        # NetJoin: every edge network advertises its NID, gateway and
        # (when deployed) staging VNF in its beacons.
        self.netjoin = AdvertisementDirectory()
        for edge in self.edges:
            self.netjoin.announce(
                edge.name,
                NetworkAdvertisement(
                    nid=edge.router.nid,
                    gateway_hid=edge.router.hid,
                    vnf_sid=edge.vnf.sid if edge.vnf is not None else None,
                ),
            )
        access_points: dict[str, AccessPointInfo] = {}
        for index, edge in enumerate(self.edges):
            loss_stream = self.streams.stream(f"wireless-loss-{edge.name}")
            def make_loss():
                if params.packet_loss <= calibration.FADE_GOOD_LOSS:
                    from repro.net.loss import BernoulliLoss

                    return BernoulliLoss(params.packet_loss, loss_stream)
                return GilbertElliottLoss(
                    average_rate=params.packet_loss,
                    rng=loss_stream,
                    good_loss=calibration.FADE_GOOD_LOSS,
                    bad_loss=calibration.FADE_BAD_LOSS,
                    mean_bad_duration=calibration.FADE_MEAN_DURATION_S,
                )
            link = WirelessLink(
                sim,
                f"wifi-{edge.name}",
                mac_rate_bps=calibration.WIRELESS_PHY_BPS,
                delay=calibration.WIRELESS_BASE_DELAY_S,
                loss_up=make_loss(),
                loss_down=make_loss(),
                max_retries=calibration.ARQ_MAX_RETRIES,
                retry_backoff=calibration.ARQ_RETRY_BACKOFF_S,
                frame_overhead=calibration.WIRELESS_FRAME_OVERHEAD_S,
            )
            net.connect(self.client_host, edge.ap, link)
            link.set_up(False)
            advertisement = self.netjoin.lookup(edge.name)
            access_points[edge.name] = AccessPointInfo(
                name=edge.name,
                device=edge.ap,
                nid=advertisement.nid,
                client_port_index=index,
                vnf_sid=advertisement.vnf_sid,
                cache_hid=(
                    advertisement.gateway_hid if advertisement.has_vnf else None
                ),
            )
        self.access_points = access_points
        self.controller = AssociationController(
            sim, net, self.client_host, access_points
        )
        self.scanner = Scanner(sim, self.coverage, self.controller)
        self.client_endpoint = TransportEndpoint(
            sim, self.client_host, self.transport_config
        )

    # -- the client factory -----------------------------------------------------

    def make_client(
        self,
        system: str,
        handoff_policy: Optional[HandoffPolicy] = None,
        staging_policy: Optional[StagingPolicy] = None,
    ) -> MobileClient:
        """Build the scenario's one client application: ``system`` names
        a :data:`SYSTEMS` entry; ``None`` policies are its defaults."""
        client_class = system_class(system)
        if self._client_made:
            raise ConfigurationError(
                "one scenario supports a single client application; "
                "build a fresh TestbedScenario per run"
            )
        self._client_made = True
        client = client_class(
            self.sim,
            self.client_host,
            self.client_endpoint,
            self.controller,
            self.scanner,
            handoff_policy=handoff_policy,
            staging_policy=staging_policy,
        )
        self.scanner.start()
        return client

    # -- content -------------------------------------------------------------------

    def publish_default_content(self) -> PublishedContent:
        return self.server.publish(
            "payload", self.params.file_size, self.params.chunk_size
        )

    def __repr__(self) -> str:
        return (
            f"<TestbedScenario edges={len(self.edges)} seed={self.seed} "
            f"params={self.params}>"
        )
