"""The Staging Virtual Network Function (data plane, edge side).

"A very lightweight virtual network function embedded inside XCache
that is application-agnostic" (§III-C): on a Staging Manager's
request it prefetches the named chunks from their origin servers into
the local XCache and answers with the staged address (the edge
network's NID and HID) plus the measured staging latency, which the
client's staging algorithm consumes.

The VNF keeps only transient state (fetches in flight); everything
durable lives in the client's Chunk Profile — the paper's
distributed-state-management split.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import TransportError
from repro.obs.events import (
    StageRequestReceived,
    VnfStageCompleted,
    VnfStageFailed,
)
from repro.sim import Simulator
from repro.transport.chunkfetch import ChunkFetcher
from repro.transport.reliable import TransportEndpoint
from repro.xia.dag import DagAddress
from repro.xia.ids import XID
from repro.xia.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.xcache.store import ContentStore
    from repro.xia.router import XIARouter


def vnf_address(info) -> Optional[DagAddress]:
    """Service DAG of an edge network's staging VNF, if advertised.

    Accepts an :class:`~repro.mobility.association.AccessPointInfo`, a
    scan-result wrapper carrying one as ``.ap``, or ``None``; returns
    ``None`` when the network advertises no VNF (the fault-tolerance
    path).  The one place NetJoin payload fields become a service DAG —
    used by the Network Sensor, the staging-action executor and the
    baselines alike.
    """
    info = getattr(info, "ap", info)
    if info is None or info.vnf_sid is None or info.cache_hid is None:
        return None
    return DagAddress.service(info.vnf_sid, info.nid, info.cache_hid)


class StagingVNF:
    """Edge-network staging executor, registered as an XIA service."""

    def __init__(
        self,
        sim: Simulator,
        router: "XIARouter",
        store: "ContentStore",
        endpoint: TransportEndpoint,
        sid: XID,
    ) -> None:
        self.sim = sim
        self.router = router
        self.store = store
        self.endpoint = endpoint
        self.sid = sid
        self.fetcher = ChunkFetcher(sim, endpoint)
        router.register_service(sid, self.handle_packet)

        #: CID -> recorded staging latency for re-announcements.
        self._staged_latency: dict[XID, float] = {}
        self._in_flight: dict[XID, list[DagAddress]] = {}
        self.chunks_staged = 0
        self.stage_failures = 0

    # -- control plane ----------------------------------------------------

    def handle_packet(self, packet: Packet, port: "Port") -> None:
        if packet.ptype is not PacketType.STAGE_REQUEST:
            return
        chunks = packet.payload.get("chunks", ())
        probe = self.sim.probe
        if probe.active:
            probe.emit(
                StageRequestReceived(
                    vnf=self.router.name,
                    cids=",".join(e["cid"].short for e in chunks),
                )
            )
        reply_to = packet.src
        for entry in chunks:
            self._handle_one(entry["cid"], entry["raw_dag"], reply_to)

    def _handle_one(self, cid: XID, raw_dag: DagAddress, reply_to: DagAddress) -> None:
        if self.store.has(cid):
            # Already staged (possibly for another client, or a re-sent
            # signal after the first answer was lost): answer at once,
            # refreshing the pin so eviction spares it.
            self.store.pin(cid)
            self._announce(cid, reply_to, self._staged_latency.get(cid, 0.0))
            return
        waiters = self._in_flight.get(cid)
        if waiters is not None:
            if reply_to not in waiters:
                waiters.append(reply_to)
            return
        self._in_flight[cid] = [reply_to]
        self.sim.process(self._stage_one(cid, raw_dag))

    # -- data plane -----------------------------------------------------------

    def _stage_one(self, cid: XID, raw_dag: DagAddress):
        started = self.sim.now
        probe = self.sim.probe
        try:
            outcome = yield self.sim.process(self.fetcher.fetch(raw_dag))
        except TransportError:
            self.stage_failures += 1
            if probe.active:
                probe.emit(VnfStageFailed(vnf=self.router.name, cid=cid.short))
            self._in_flight.pop(cid, None)
            return
        latency = self.sim.now - started
        if outcome.chunk is not None:
            self.store.put(outcome.chunk, pin=True)
        self._staged_latency[cid] = latency
        self.chunks_staged += 1
        if probe.active:
            probe.emit(
                VnfStageCompleted(
                    vnf=self.router.name, cid=cid.short, latency=latency
                )
            )
        waiters = self._in_flight.pop(cid, [])
        for reply_to in waiters:
            self._announce(cid, reply_to, latency)

    def _announce(self, cid: XID, reply_to: DagAddress, latency: float) -> None:
        response = Packet(
            PacketType.STAGE_RESPONSE,
            dst=reply_to,
            src=DagAddress.host(self.router.hid, self.router.nid),
            payload={
                "cid": cid,
                "nid": self.router.nid,
                "hid": self.router.hid,
                "staging_latency": latency,
            },
            size_bytes=160,
        )
        self.router.send(response)

    def __repr__(self) -> str:
        return (
            f"<StagingVNF at {self.router.name}: staged={self.chunks_staged} "
            f"in_flight={len(self._in_flight)}>"
        )
