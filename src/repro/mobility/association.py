"""Client association state over the packet-level network.

The client owns one wireless "data" radio.  Physically we pre-create a
(down) wireless link from a dedicated client port to every AP; being
*associated* to an AP means that link is up, the client's HID is
routed in that edge network, and the client's data interface is that
port.  The Table III note applies: layer-2 (re)association overhead is
assumed optimized to near-zero, so joining takes no simulated time —
the cost of moving is paid by *transport session migration*, which the
applications trigger on the attach notification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.net.link import Port
from repro.net.nodes import Device, Host
from repro.net.topology import Network
from repro.sim import Simulator
from repro.xia.ids import XID


@dataclass(frozen=True)
class AccessPointInfo:
    """Everything the client side needs to know to join one AP."""

    name: str
    device: Device
    nid: XID
    client_port_index: int
    #: SID of the staging VNF advertised via NetJoin beacons (None when
    #: the edge network has no VNF deployed — the fault-tolerance case).
    vnf_sid: Optional[XID] = None
    #: HID of the edge network's XCache router (beacon payload).
    cache_hid: Optional[XID] = None


@dataclass(frozen=True)
class Association:
    """The client's current attachment."""

    ap: AccessPointInfo
    since: float


class AssociationController:
    """Owns the client's single data-radio association."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        client: Host,
        access_points: dict[str, AccessPointInfo],
    ) -> None:
        if not access_points:
            raise ConfigurationError("no access points registered")
        self.sim = sim
        self.network = network
        self.client = client
        self.access_points = access_points
        self.current: Optional[Association] = None
        self._on_attach: list[Callable[[Association], None]] = []
        self._on_detach: list[Callable[[Association], None]] = []
        self._attach_waiters: list = []
        self._joining = False
        # All access links start down.
        for info in access_points.values():
            port = client.port(info.client_port_index)
            if port.link is not None:
                port.link.set_up(False)

    # -- listeners ----------------------------------------------------------

    def on_attach(self, callback: Callable[[Association], None]) -> None:
        self._on_attach.append(callback)

    def on_detach(self, callback: Callable[[Association], None]) -> None:
        self._on_detach.append(callback)

    # -- state ---------------------------------------------------------------

    @property
    def is_associated(self) -> bool:
        return self.current is not None

    def wait_attached(self):
        """None when associated; otherwise an event firing on attach.

        Matches the ``wait_for_connectivity`` hook of
        :class:`~repro.transport.chunkfetch.ChunkFetcher`.
        """
        if self.current is not None:
            return None
        event = self.sim.event(name="wait-attached")
        self._attach_waiters.append(event)
        return event

    @property
    def current_ap_name(self) -> Optional[str]:
        return self.current.ap.name if self.current else None

    def client_port(self, info: AccessPointInfo) -> Port:
        return self.client.port(info.client_port_index)

    # -- transitions -----------------------------------------------------------

    def associate(self, ap_name: str):
        """Process: join ``ap_name`` (leaving any current AP first)."""
        info = self.access_points.get(ap_name)
        if info is None:
            raise ConfigurationError(f"unknown AP {ap_name!r}")
        if self._joining:
            return self.current
        if self.current is not None:
            if self.current.ap.name == ap_name:
                return self.current
            self._detach()
        self._joining = True
        try:
            yield self.sim.timeout(0.0)
            self.network.attach_client(
                self.client, self.client_port(info), info.device, info.nid
            )
            self.client.set_active_port(info.client_port_index)
            self.current = Association(ap=info, since=self.sim.now)
        finally:
            self._joining = False
        for callback in list(self._on_attach):
            callback(self.current)
        waiters, self._attach_waiters = self._attach_waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(self.current)
        return self.current

    def disassociate(self) -> None:
        """Drop the current association (coverage lost or forced)."""
        if self.current is not None:
            self._detach()

    def _detach(self) -> None:
        association = self.current
        self.current = None
        info = association.ap
        self.network.detach_client(
            self.client, self.client_port(info), info.nid
        )
        for callback in list(self._on_detach):
            callback(association)

    def __repr__(self) -> str:
        return f"<AssociationController current={self.current_ap_name}>"
