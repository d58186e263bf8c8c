"""The chunk request/serve protocol (XfetchChunk's data path).

A client fetches a chunk by sending a CHUNK_REQUEST addressed to the
chunk's DAG (``CID | NID : HID``).  Whatever device first resolves the
CID — an edge cache holding the staged chunk, or the origin server via
the fallback path — answers by streaming the chunk back over a
:class:`~repro.transport.reliable.SenderSession`.  The request is
retransmitted until data starts flowing; the received chunk is hash-
verified against its CID before the fetch completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import ChunkIntegrityError, TransportError
from repro.sim import Simulator
from repro.transport.config import TransportConfig
from repro.transport.reliable import ReceiverSession, TransportEndpoint
from repro.xia.dag import DagAddress
from repro.xia.ids import XID
from repro.xia.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.net.nodes import Host
    from repro.xcache.store import ContentStore
    from repro.xia.router import XIARouter


@dataclass
class FetchOutcome:
    """What a completed chunk fetch reports back to the application."""

    cid: XID
    bytes_received: int
    duration: float
    served_by_hid: Optional[XID]
    #: The received (and CID-verified) chunk object, when the transfer
    #: carried one.
    chunk: Optional[object] = None


class ChunkFetcher:
    """Client-side fetch engine: request, receive, verify."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: TransportEndpoint,
        config: Optional[TransportConfig] = None,
        wait_for_connectivity=None,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.config = config or endpoint.config
        #: Optional hook: returns None when the client is online, or an
        #: event that fires on (re)attachment.  Requests are deferred
        #: while offline instead of burning the retry budget.
        self.wait_for_connectivity = wait_for_connectivity

    def fetch(self, address: DagAddress):
        """Process: fetch the chunk at ``address``; returns FetchOutcome.

        Yields inside a simulation process.  Raises
        :class:`TransportError` when the request cannot be answered
        within the retry budget.
        """
        config = self.config
        started_at = self.sim.now
        if config.per_chunk_overhead > 0:
            # Client-side chunk-context setup (daemon IPC round trips).
            yield self.sim.timeout(config.per_chunk_overhead)
        session_id = self.sim.new_session_id()
        receiver = self.endpoint.open_receiver(session_id, config=config)

        attempts = 0
        while not receiver.started.triggered:
            if self.wait_for_connectivity is not None:
                gate = self.wait_for_connectivity()
                if gate is not None:
                    yield self.sim.any_of([gate, receiver.started])
                    continue
            if attempts >= config.request_retries:
                self.endpoint.close_session(session_id)
                raise TransportError(
                    f"chunk request for {address.intent.short} got no answer "
                    f"after {attempts} attempts"
                )
            attempts += 1
            self._send_request(address, session_id)
            yield self.sim.any_of(
                [receiver.started, self.sim.timeout(config.request_timeout)]
            )

        yield receiver.done
        meta = receiver.first_data_meta or {}

        # Receiver-side CID verification (hashing the reassembled chunk).
        if config.verify_rate != float("inf") and receiver.bytes_received > 0:
            yield self.sim.timeout(receiver.bytes_received / config.verify_rate)
        chunk = meta.get("chunk")
        if chunk is not None and not chunk.verify(address.intent):
            raise ChunkIntegrityError(
                f"chunk from {meta.get('server_hid')} does not hash to "
                f"{address.intent.short}"
            )

        return FetchOutcome(
            cid=address.intent,
            bytes_received=receiver.bytes_received,
            duration=self.sim.now - started_at,
            served_by_hid=meta.get("server_hid"),
            chunk=chunk,
        )

    def _send_request(self, address: DagAddress, session_id: int) -> None:
        host = self.endpoint.host
        nid = getattr(host, "nid", None) or getattr(host, "current_nid", None)
        local_dag = DagAddress.host(host.hid, nid)
        request = Packet.acquire(
            PacketType.CHUNK_REQUEST,
            dst=address,
            src=local_dag,
            payload={"session": session_id},
            size_bytes=self.config.ack_bytes + 40,
        )
        host.send(request)


class CacheDaemon:
    """Serves CHUNK_REQUESTs from a content store (XCache's serve path).

    Attach to the origin server host (all published chunks) or to an
    edge router (staged/cached chunks).  Duplicate requests for an
    in-flight session are absorbed by the sender's idempotent start.
    """

    def __init__(
        self,
        sim: Simulator,
        node: "Host",
        store: "ContentStore",
        endpoint: TransportEndpoint,
        nid: Optional[XID] = None,
        unpin_on_serve: bool = False,
    ) -> None:
        self.sim = sim
        self.node = node
        self.store = store
        self.endpoint = endpoint
        self.nid = nid if nid is not None else getattr(node, "nid", None)
        self.unpin_on_serve = unpin_on_serve
        self._install()

    def _install(self) -> None:
        from repro.xia.router import XIARouter

        if isinstance(self.node, XIARouter):
            self.node.content_store = self.store
            self.node.cid_request_handler = self.handle_request
        else:
            self.node.register_handler(PacketType.CHUNK_REQUEST, self.handle_request)

    def handle_request(self, packet: Packet, port: "Port") -> None:
        # Terminal consumer of the request packet on every branch; the
        # sender session keeps the client's DAG (a shared immutable
        # object), never the packet.
        cid = packet.dst.intent
        chunk = self.store.peek(cid)
        if chunk is None:
            packet.release()
            return
        self.store.get(cid)  # count the hit / refresh recency
        session_id = int(packet.payload["session"])
        already_running = session_id in self.endpoint.senders
        sender = self.endpoint.start_send(
            session_id,
            dst=packet.src,
            src=self._local_dag(),
            total_bytes=chunk.size_bytes,
            meta={"chunk": chunk, "server_hid": self.node.hid},
        )
        if already_running:
            # A re-sent request: the client may have moved before any
            # data reached it — restart the stream toward its current
            # address.
            sender.redirect(packet.src)
        elif self.unpin_on_serve:
            self.store.unpin(cid)
        packet.release()

    def _local_dag(self) -> DagAddress:
        return DagAddress.host(self.node.hid, self.nid)
