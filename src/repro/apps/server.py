"""The origin content server.

Bundles what the paper's Server Host does: "listens to the client's
request, splits the target file into chunks and puts them into the
local cache for serving the clients" — a host, an XCache content
store, a publisher, and the serve daemon.
"""

from __future__ import annotations

from typing import Optional

from repro.net.nodes import Host
from repro.sim import Simulator
from repro.transport.chunkfetch import CacheDaemon
from repro.transport.config import TransportConfig, XIA_CHUNK
from repro.transport.reliable import TransportEndpoint
from repro.xcache.publisher import ContentPublisher, PublishedContent
from repro.xcache.store import ContentStore
from repro.xia.ids import XID


class ContentServer:
    """Origin server: publish content, serve chunk requests."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        nid: XID,
        config: Optional[TransportConfig] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.nid = nid
        self.store = ContentStore()
        self.publisher = ContentPublisher(self.store, nid, host.hid)
        self.endpoint = TransportEndpoint(sim, host, config or XIA_CHUNK)
        CacheDaemon(sim, host, self.store, self.endpoint, nid=nid)

    def publish(self, name: str, total_bytes: int, chunk_size: int) -> PublishedContent:
        """Split ``total_bytes`` of content into chunks and publish."""
        return self.publisher.publish_synthetic(name, total_bytes, chunk_size)

    def __repr__(self) -> str:
        return f"<ContentServer {self.host.name} {len(self.publisher.published)} objects>"
