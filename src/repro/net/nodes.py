"""Devices: the things ports attach to.

:class:`Device` is the base: it owns ports, a processing-cost model and
a receive path.  :class:`Host` adds endpoint behaviour — an HID, packet
demultiplexing to transport sessions and control-plane handlers, and
multihoming (the SoftStage client uses a *data* interface and a
*sensor* interface, §II-B).

Routers are devices too, but they carry an XIA forwarding engine and
live in :mod:`repro.xia.router`.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.link import Port
from repro.net.processing import ProcessingModel
from repro.sim import Simulator
from repro.sim.core import NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.xia.ids import XID
    from repro.xia.packet import Packet, PacketType


class Device:
    """A network element with ports and a packet-processing budget."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        processing: Optional[ProcessingModel] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.ports: list[Port] = []
        self.processing = processing or ProcessingModel(sim)
        #: ``handle_packet`` bound once: the ``cpu`` step's callback.
        self._handle_packet = self.handle_packet

    def add_port(self, port: Port) -> Port:
        port.device = self
        self.ports.append(port)
        return port

    def port(self, index: int = 0) -> Port:
        try:
            return self.ports[index]
        except IndexError:
            raise ConfigurationError(
                f"{self.name} has no port {index} (has {len(self.ports)})"
            ) from None

    # -- receive path ------------------------------------------------------

    def receive(self, packet: "Packet", port: Port) -> None:
        """Entry point from the link layer; applies processing cost.

        The node's CPU is a single FIFO server: the delay is the wait
        for earlier packets to drain plus this packet's own service
        time (DESIGN.md §15 pins the float expressions).
        """
        processing = self.processing
        cost = processing.per_packet_seconds
        if cost:
            sim = self.sim
            now = sim._now
            busy = processing._busy_until
            busy = processing._busy_until = (busy if busy > now else now) + cost
            delay = busy - now
            if delay > 0:
                # Pushed as ``call_at`` would, at now + delay > now (the
                # push rule, ``repro.net.link``).
                sim._seq += 1
                heappush(sim._queue, (now + delay, NORMAL, sim._seq, None,
                                      self._handle_packet, (packet, port), "cpu"))
                return
        self.handle_packet(packet, port)

    def handle_packet(self, packet: "Packet", port: Port) -> None:
        """Override: what to do with a received packet."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name}>"


class Host(Device):
    """An end host: an HID, sessions, handlers, possibly multihomed."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        hid: "XID",
        processing: Optional[ProcessingModel] = None,
    ) -> None:
        super().__init__(sim, name, processing=processing)
        self.hid = hid
        #: NID of the network each port is currently attached to
        #: (maintained by the topology / mobility layer).
        self.port_nids: dict[Port, "XID"] = {}
        self._session_handlers: dict[int, Callable[["Packet", Port], None]] = {}
        self._type_handlers: dict["PacketType", Callable[["Packet", Port], None]] = {}
        self._active_port_index = 0

    # -- ports / multihoming ---------------------------------------------------

    @property
    def active_port(self) -> Port:
        """The interface used for data transfer."""
        return self.port(self._active_port_index)

    def set_active_port(self, index: int) -> None:
        if not 0 <= index < len(self.ports):
            raise ConfigurationError(f"{self.name}: no port {index}")
        self._active_port_index = index

    @property
    def current_nid(self) -> Optional["XID"]:
        """NID the data interface is attached to (None when offline)."""
        # Per ACK: index and read the link flag directly, falling back
        # to the property (and its error) only when there is no port.
        port = self.ports[self._active_port_index] if self.ports \
            else self.active_port
        link = port.link
        if link is None or not link._up:
            return None
        return self.port_nids.get(port)

    def send(self, packet: "Packet") -> None:
        """Transmit on the data interface."""
        port = self.ports[self._active_port_index] if self.ports \
            else self.active_port
        port.send(packet)

    # -- demultiplexing ---------------------------------------------------------

    def register_session(
        self, session_id: int, handler: Callable[["Packet", Port], None]
    ) -> None:
        self._session_handlers[session_id] = handler

    def unregister_session(self, session_id: int) -> None:
        self._session_handlers.pop(session_id, None)

    def register_handler(
        self, ptype: "PacketType", handler: Callable[["Packet", Port], None]
    ) -> None:
        self._type_handlers[ptype] = handler

    def _addressed_to_me(self, packet: "Packet") -> bool:
        """Whether this host is a legitimate destination of the packet:
        its HID is the intent or appears on a fallback route (a CID/SID
        intent with our HID as fallback is how chunk requests reach the
        origin server)."""
        dst = packet.dst
        hid = self.hid
        intent = dst.intent
        if intent is hid or intent == hid:
            return True
        for route in dst.routes:
            for waypoint in route:
                if waypoint == hid:
                    return True
        return False

    def handle_packet(self, packet: "Packet", port: Port) -> None:
        if packet.dst.intent is not self.hid and not self._addressed_to_me(packet):
            return  # not ours: dropped
        if packet.session_id is not None:
            handler = self._session_handlers.get(packet.session_id)
            if handler is not None:
                handler(packet, port)
                return
        handler = self._type_handlers.get(packet.ptype)
        if handler is not None:
            handler(packet, port)
