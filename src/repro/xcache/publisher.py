"""Publishing content: files -> chunk sequences -> addresses.

The server application "splits the target file into chunks and puts
them into the local cache for serving the clients" (paper §III-C); the
client then retrieves the content's DAG information.  ``PublishedContent``
is that DAG information: the ordered list of chunk CIDs with their
origin addresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.util.validation import check_positive
from repro.xcache.chunk import Chunk
from repro.xcache.store import ContentStore
from repro.xia.dag import DagAddress
from repro.xia.ids import PrincipalType, XID


@dataclass(frozen=True)
class PublishedContent:
    """The manifest a client fetches before downloading content."""

    name: str
    total_bytes: int
    chunk_size: int
    chunks: tuple[Chunk, ...]
    addresses: tuple[DagAddress, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.chunks) != len(self.addresses):
            raise ConfigurationError("chunks and addresses must align")

    def __len__(self) -> int:
        return len(self.chunks)


class ContentPublisher:
    """Splits content into chunks and publishes it into an XCache store."""

    def __init__(self, store: ContentStore, nid: XID, hid: XID) -> None:
        if nid.principal_type is not PrincipalType.NID:
            raise ConfigurationError(f"expected a NID, got {nid!r}")
        if hid.principal_type is not PrincipalType.HID:
            raise ConfigurationError(f"expected a HID, got {hid!r}")
        self.store = store
        self.nid = nid
        self.hid = hid
        self.published: dict[str, PublishedContent] = {}

    def publish_synthetic(
        self, name: str, total_bytes: int, chunk_size: int
    ) -> PublishedContent:
        """Publish ``total_bytes`` of generated content as chunks.

        The final chunk may be short, exactly as a file split would be.
        """
        check_positive("total_bytes", total_bytes)
        check_positive("chunk_size", chunk_size)
        if name in self.published:
            raise ConfigurationError(f"content {name!r} already published")
        count = math.ceil(total_bytes / chunk_size)
        chunks = []
        for index in range(count):
            size = min(chunk_size, total_bytes - index * chunk_size)
            chunks.append(Chunk.synthetic(name, index, size))
        return self._publish(name, total_bytes, chunk_size, chunks)

    def _publish(
        self, name: str, total_bytes: int, chunk_size: int, chunks: list[Chunk]
    ) -> PublishedContent:
        addresses = tuple(
            DagAddress.content(chunk.cid, self.nid, self.hid) for chunk in chunks
        )
        for chunk in chunks:
            if not self.store.put(chunk, pin=True):
                raise ConfigurationError(
                    f"origin store cannot hold published content {name!r}"
                )
        content = PublishedContent(
            name=name,
            total_bytes=total_bytes,
            chunk_size=chunk_size,
            chunks=tuple(chunks),
            addresses=addresses,
        )
        self.published[name] = content
        return content
