"""The network: devices, links, NID registry and route computation.

A :class:`Network` assembles devices and links, computes static routes
between the wired infrastructure (routers, servers), and manages the
dynamic part — which wireless access link the mobile client is
currently attached to, and therefore where its HID is routable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Optional

from repro.errors import ConfigurationError, RoutingError
from repro.net.link import Link, Port
from repro.net.nodes import Device, Host
from repro.net.wireless import WirelessLink
from repro.sim import RandomStreams, Simulator
from repro.xia.ids import PrincipalType, XID

if False:  # pragma: no cover - typing only
    from repro.xia.router import XIARouter


class Network:
    """A collection of devices and links plus routing helpers."""

    def __init__(self, sim: Simulator, streams: Optional[RandomStreams] = None) -> None:
        self.sim = sim
        self.streams = streams or RandomStreams(0)
        self.devices: dict[str, Device] = {}
        self.links: list[Link] = []
        self._adjacency: list[tuple[Device, Device, Link]] = []
        #: NID -> gateway router of that network.
        self.gateways: dict[XID, "XIARouter"] = {}

    # -- construction -------------------------------------------------------

    def add_device(self, device: Device) -> Device:
        if device.name in self.devices:
            raise ConfigurationError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        return device

    def register_network(self, nid: XID, gateway: "XIARouter") -> None:
        if nid.principal_type is not PrincipalType.NID:
            raise ConfigurationError(f"expected a NID, got {nid!r}")
        if nid in self.gateways:
            raise ConfigurationError(f"network {nid.short} already registered")
        self.gateways[nid] = gateway

    def connect(self, device_a: Device, device_b: Device, link: Link) -> Link:
        """Attach ``link`` between two already-added devices."""
        for device in (device_a, device_b):
            if device.name not in self.devices:
                raise ConfigurationError(f"{device.name} not added to the network")
        link.attach(device_a, device_b)
        self.links.append(link)
        self._adjacency.append((device_a, device_b, link))
        return link

    # -- lookup ----------------------------------------------------------------

    def port_toward(self, device: Device, neighbor: Device) -> Port:
        """The port on ``device`` whose link leads to ``neighbor``."""
        for dev_a, dev_b, link in self._adjacency:
            if dev_a is device and dev_b is neighbor:
                return link.port_a
            if dev_b is device and dev_a is neighbor:
                return link.port_b
        raise RoutingError(f"no link between {device.name} and {neighbor.name}")

    # -- routing ----------------------------------------------------------------

    def _wired_paths(self, source: str) -> dict[str, list[str]]:
        """Least-delay wired paths from device ``source``: ``{name:
        [source, ..., name]}`` for every device it reaches.

        Dijkstra with ties settled by construction order (strictly
        shorter replaces, equal distances pop first-pushed first,
        neighbours in link-connection order): next hops never move.
        """
        neighbours: dict[str, dict[str, float]] = {
            name: {} for name in self.devices
        }
        for dev_a, dev_b, link in self._adjacency:
            if not isinstance(link, WirelessLink):
                neighbours[dev_a.name][dev_b.name] = link.propagation_delay
                neighbours[dev_b.name][dev_a.name] = link.propagation_delay
        if source not in neighbours:
            return {}
        paths = {source: [source]}
        best = {source: 0.0}
        pushes = count()
        fringe = [(0.0, next(pushes), source)]
        while fringe:
            distance, _, name = heappop(fringe)
            if distance > best[name]:
                continue  # superseded by a shorter path pushed later
            for peer, delay in neighbours[name].items():
                reach = distance + delay
                if peer not in best or reach < best[peer]:
                    best[peer] = reach
                    paths[peer] = paths[name] + [peer]
                    heappush(fringe, (reach, next(pushes), peer))
        return paths

    def build_static_routes(self) -> None:
        """Install NID and wired-host HID routes on every router."""
        from repro.xia.router import XIARouter

        routers = [d for d in self.devices.values() if isinstance(d, XIARouter)]
        for router in routers:
            table = self._wired_paths(router.name)
            for nid, gateway in self.gateways.items():
                if gateway is router:
                    continue
                path = table.get(gateway.name)
                if path is None or len(path) < 2:
                    continue
                next_device = self.devices[path[1]]
                router.engine.set_nid_route(nid, self.port_toward(router, next_device))

        # Wired hosts: their adjacent router delivers their HID; other
        # routers reach them via the NID of that router's network.
        for dev_a, dev_b, link in self._adjacency:
            if isinstance(link, WirelessLink):
                continue
            for host, peer in ((dev_a, dev_b), (dev_b, dev_a)):
                if isinstance(host, Host) and not isinstance(host, XIARouter):
                    if isinstance(peer, XIARouter):
                        peer.engine.set_hid_route(
                            host.hid, self.port_toward(peer, host)
                        )
                        host.port_nids[self.port_toward(host, peer)] = peer.nid

    # -- client attachment (called by the mobility layer) ----------------------------

    def attach_client(
        self,
        client: Host,
        client_port: Port,
        access_point: Device,
        nid: XID,
    ) -> None:
        """Bring the client's access link up and make its HID routable."""
        gateway = self.gateways.get(nid)
        if gateway is None:
            raise ConfigurationError(f"unknown network {nid.short}")
        link = client_port.link
        if link is None:
            raise ConfigurationError("client port is not connected to a link")
        link.set_up(True)
        client.port_nids[client_port] = nid
        # Route client HID: gateway -> access point -> (bridged) client.
        if gateway is access_point:
            gateway.engine.set_hid_route(client.hid, client_port.peer)
        else:
            gateway.engine.set_hid_route(
                client.hid, self.port_toward(gateway, access_point)
            )

    def detach_client(self, client: Host, client_port: Port, nid: XID) -> None:
        """Take the access link down and withdraw the client's route."""
        gateway = self.gateways.get(nid)
        link = client_port.link
        if link is not None:
            link.set_up(False)
        client.port_nids.pop(client_port, None)
        if gateway is not None:
            gateway.engine.remove_hid_route(client.hid)

    def __repr__(self) -> str:
        return (
            f"<Network {len(self.devices)} devices, {len(self.links)} links, "
            f"{len(self.gateways)} NIDs>"
        )
