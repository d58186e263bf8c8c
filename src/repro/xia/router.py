"""The XIA forwarding engine and router device.

Routers forward packets by walking the destination DAG: try the
highest-priority candidate XID the packet has not yet satisfied; a CID
can be served from the local XCache, an NID matches either this
network (mark visited and continue) or a route toward another network,
an HID is either this node, a locally-attached host, or unroutable
here, and an SID is a locally-registered service (e.g. the Staging
VNF).  Candidates that cannot be acted on fall through to the next —
this is XIA's fallback semantics, and is what lets a CID request reach
the origin server when no cache on the path holds the chunk.

The per-hop walk is cached: for a given (destination DAG, visited
bitmask) pair a router always reaches the same terminal action, so
:class:`XIARouter` compiles the walk once into a *decision* and replays
it on every later packet of the flow (see DESIGN.md §10).  The only
data-dependent step — does the local XCache hold this CID right now? —
is kept out of the cached part and re-checked per packet.  Decisions
are invalidated whenever anything they were compiled from changes:
route table edits, service registration, and store/handler attachment.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.link import Port
from repro.net.nodes import Host
from repro.xia.ids import PrincipalType, XID
from repro.xia.packet import PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.processing import ProcessingModel
    from repro.sim import Simulator
    from repro.xcache.store import ContentStore
    from repro.xia.packet import Packet


class ForwardingEngine:
    """The route table for one router.

    One dict keyed by XID serves every routable principal type (the
    XID value embeds its type, so NIDs and HIDs cannot collide).
    Every mutation fires :attr:`on_change` so the owning router can
    invalidate its forwarding-decision cache.
    """

    def __init__(self) -> None:
        self.routes: dict[XID, Port] = {}
        #: Called after any mutation (route add/remove).
        self.on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        callback = self.on_change
        if callback is not None:
            callback()

    def set_nid_route(self, nid: XID, port: Port) -> None:
        self._expect(nid, PrincipalType.NID)
        self.routes[nid] = port
        self._changed()

    def set_hid_route(self, hid: XID, port: Port) -> None:
        self._expect(hid, PrincipalType.HID)
        self.routes[hid] = port
        self._changed()

    def remove_hid_route(self, hid: XID) -> None:
        if self.routes.pop(hid, None) is not None:
            self._changed()

    def port_for(self, xid: XID) -> Optional[Port]:
        return self.routes.get(xid)

    @staticmethod
    def _expect(xid: XID, principal_type: PrincipalType) -> None:
        if xid.principal_type is not principal_type:
            raise ConfigurationError(f"expected {principal_type.value}, got {xid!r}")


# Decision kinds (terminal actions of the candidate walk).
_FORWARD = 0   # arg: egress Port
_LOCAL = 1     # arg: own-HID visited bit
_SID = 2       # arg: the SID whose handler takes the packet
_DROP = 3      # arg: None

#: Third key element of a ``send`` (egress-only) decision.
_EGRESS = "egress"

#: Decisions per router before the cache is cleared wholesale.  A
#: router sees a handful of flows × a handful of masks each; the cap
#: only guards against adversarial DAG churn.
DECISION_CACHE_LIMIT = 4096


class XIARouter(Host):
    """An XIA router: forwarding engine + optional XCache + services.

    Routers are also hosts (they have an HID and terminate transport
    sessions) because XCache runs *on* them: a chunk served from the
    router's cache is a transport session between the router and the
    client.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        hid: XID,
        nid: XID,
        processing: Optional["ProcessingModel"] = None,
    ) -> None:
        super().__init__(sim, name, hid, processing=processing)
        if nid.principal_type is not PrincipalType.NID:
            raise ConfigurationError(f"router NID expected, got {nid!r}")
        self.nid = nid
        self.engine = ForwardingEngine()
        self.engine.on_change = self._invalidate_decisions
        self._content_store: Optional["ContentStore"] = None
        self._cid_request_handler: Optional[
            Callable[["Packet", Port], None]
        ] = None
        #: Locally registered services (SID -> handler), e.g. Staging VNF.
        self.services: dict[XID, Callable[["Packet", Port], None]] = {}
        #: (hash of dst DAG, visited mask) -> compiled terminal decision
        #: + that dst, and (hash, mask, _EGRESS) -> (pre-mask, egress
        #: port, dst) for locally-originated packets.  The key is ints
        #: and a constant, hashed in C; an entry is a hit only for its
        #: own dst, so a hash collision is a miss (DESIGN.md §10).
        self._decisions: dict[tuple, tuple] = {}
        self.forwarded_packets = 0
        self.dropped_unroutable = 0

    # -- decision cache ------------------------------------------------------

    def _invalidate_decisions(self) -> None:
        self._decisions.clear()

    @property
    def content_store(self) -> Optional["ContentStore"]:
        return self._content_store

    @content_store.setter
    def content_store(self, store: Optional["ContentStore"]) -> None:
        # Attaching/removing a store changes whether CID candidates are
        # checked at all, which is baked into compiled decisions.
        self._content_store = store
        self._decisions.clear()

    @property
    def cid_request_handler(self):
        """Handler for CID requests that hit the local store."""
        return self._cid_request_handler

    @cid_request_handler.setter
    def cid_request_handler(self, handler) -> None:
        self._cid_request_handler = handler
        self._decisions.clear()

    # -- service registry ---------------------------------------------------

    def register_service(
        self, sid: XID, handler: Callable[["Packet", Port], None]
    ) -> None:
        if sid.principal_type is not PrincipalType.SID:
            raise ConfigurationError(f"expected a SID, got {sid!r}")
        self.services[sid] = handler
        self._decisions.clear()

    # -- sending (locally originated packets) -----------------------------------

    def send(self, packet: "Packet") -> None:
        """Route a locally-originated packet out the right port.

        Unlike plain hosts, a router picks the egress by consulting its
        own forwarding engine (cache responses leave toward whichever
        network the client is in).
        """
        out = self._route(packet)
        if out is None:
            self.dropped_unroutable += 1
            return
        out.send(packet)

    def _route(self, packet: "Packet") -> Optional[Port]:
        """Egress port for a locally-originated packet, from the
        decision cache (keyed apart from ``handle_packet``'s entries,
        cleared with them; not counted in ``fwd_cache_*``)."""
        dst = packet.dst
        mask = packet.visited_mask
        key = (dst._hash, mask, _EGRESS)
        decision = self._decisions.get(key)
        if decision is None or not (decision[2] is dst or decision[2] == dst):
            decision = self._compile_egress(dst, mask) + (dst,)
            if len(self._decisions) >= DECISION_CACHE_LIMIT:
                self._decisions.clear()
            self._decisions[key] = decision
        pre_mask, out, _dst = decision
        if pre_mask:
            packet.visited_mask = mask | pre_mask
        return out

    def _compile_egress(self, dst, mask: int) -> tuple:
        """Walk the candidates once for :meth:`_route`: mark our NID
        visited when it is a live candidate, then take the first HID or
        NID candidate other than ourselves that has a port."""
        plan = dst.plan
        pre_mask = 0
        if self.nid in plan.candidates(mask):
            pre_mask = plan.bit_of[self.nid]
            mask |= pre_mask
        for candidate in plan.candidates(mask):
            principal = candidate.principal_type
            if principal in (PrincipalType.HID, PrincipalType.NID):
                if candidate == self.hid:
                    continue
                out = self.engine.port_for(candidate)
                if out is not None:
                    return (pre_mask, out)
        return (pre_mask, None)

    # -- forwarding ------------------------------------------------------------

    def handle_packet(self, packet: "Packet", port: Port) -> None:
        dst = packet.dst
        mask = packet.visited_mask
        key = (dst._hash, mask)
        decision = self._decisions.get(key)
        if decision is None or not (decision[4] is dst or decision[4] == dst):
            self.sim.fwd_cache_misses += 1
            decision = self._compile_decision(dst, mask) + (dst,)
            if len(self._decisions) >= DECISION_CACHE_LIMIT:
                self._decisions.clear()
            self._decisions[key] = decision
        else:
            self.sim.fwd_cache_hits += 1

        kind, pre_mask, arg, cid_steps, _dst = decision
        if pre_mask:
            packet.visited_mask = mask | pre_mask
        if cid_steps is not None and packet.ptype is PacketType.CHUNK_REQUEST:
            # The one data-dependent step: is the chunk here *now*?
            store = self._content_store
            for cid, bit in cid_steps:
                if store.has(cid):
                    packet.visited_mask |= bit
                    self._cid_request_handler(packet, port)
                    return
        if kind == _FORWARD:
            self.forwarded_packets += 1
            arg.send(packet)
        elif kind == _LOCAL:
            packet.visited_mask |= arg
            self._deliver_local(packet, port)
        elif kind == _SID:
            self.services[arg](packet, port)
        else:
            self.dropped_unroutable += 1

    def _compile_decision(self, dst, mask: int) -> tuple:
        """Run the candidate walk once and record its terminal action.

        Mirrors the historical per-packet loop exactly: entering this
        router marks its NID visited when the NID is a live candidate;
        then candidates are tried in priority order — CID candidates
        become re-checked *steps* (their store lookup cannot be
        cached), the first actionable SID/HID/NID candidate becomes the
        terminal.  CID candidates at lower priority than the terminal
        are unreachable and are not recorded.
        """
        plan = dst.plan
        bit_of = plan.bit_of
        pre_mask = 0
        if self.nid in plan.candidates(mask):
            pre_mask = bit_of[self.nid]
            mask |= pre_mask
        cid_steps: list[tuple[XID, int]] = []
        check_cids = (
            self._content_store is not None
            and self._cid_request_handler is not None
        )
        steps = None
        for candidate in plan.candidates(mask):
            principal = candidate.principal_type
            if principal is PrincipalType.CID:
                if check_cids:
                    cid_steps.append((candidate, bit_of[candidate]))
                    steps = tuple(cid_steps)
            elif principal is PrincipalType.SID:
                if candidate in self.services:
                    return (_SID, pre_mask, candidate, steps)
            elif principal is PrincipalType.HID:
                if candidate == self.hid:
                    return (_LOCAL, pre_mask, bit_of[candidate], steps)
                out = self.engine.port_for(candidate)
                if out is not None:
                    return (_FORWARD, pre_mask, out, steps)
            elif principal is PrincipalType.NID:
                # Our own NID was folded into pre_mask above; anything
                # else routes toward that network.
                out = self.engine.port_for(candidate)
                if out is not None:
                    return (_FORWARD, pre_mask, out, steps)
        return (_DROP, pre_mask, None, steps)

    def _deliver_local(self, packet: "Packet", port: Port) -> None:
        """The packet is addressed to this router itself."""
        if packet.session_id is not None:
            handler = self._session_handlers.get(packet.session_id)
            if handler is not None:
                handler(packet, port)
                return
        handler = self._type_handlers.get(packet.ptype)
        if handler is not None:
            handler(packet, port)


class AccessPoint(Host):
    """A layer-2 bridge between a wireless port and a wired uplink.

    The paper uses COTS APs that bridge the client onto the edge
    network; XIA "runs natively on any layer-2 device".  The AP does no
    XIA processing: packets from the wireless side go out the uplink
    and vice versa.
    """

    def handle_packet(self, packet: "Packet", port: Port) -> None:
        for other in self.ports:
            if other is not port:
                link = other.link
                if link is not None and link._up:
                    other.send(packet)
                return
