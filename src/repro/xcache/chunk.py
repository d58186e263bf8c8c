"""Chunks: self-certifying data objects.

A chunk's CID is the SHA-1 hash of its payload, so any receiver can
verify integrity without trusting the path it came over.  Simulated
chunks do not materialize multi-megabyte payloads: each chunk carries a
small *payload seed* (the bytes that uniquely determine the content)
and a declared ``size_bytes``; the CID is the hash of the seed plus the
size.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.util.validation import check_positive
from repro.xia.ids import PrincipalType, XID


class Chunk:
    """An immutable content chunk."""

    __slots__ = ("cid", "size_bytes", "seed", "content_name", "index")

    def __init__(
        self,
        seed: bytes,
        size_bytes: int,
        content_name: str = "",
        index: int = 0,
    ) -> None:
        check_positive("size_bytes", size_bytes)
        object.__setattr__(self, "seed", bytes(seed))
        object.__setattr__(self, "size_bytes", int(size_bytes))
        object.__setattr__(self, "content_name", content_name)
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "cid", self.compute_cid(seed, size_bytes))

    def __setattr__(self, name, value):
        raise AttributeError("Chunk is immutable")

    @staticmethod
    def compute_cid(seed: bytes, size_bytes: int) -> XID:
        digest = hashlib.sha1(
            seed + size_bytes.to_bytes(8, "big")
        ).digest()
        return XID(PrincipalType.CID, digest)

    @classmethod
    def synthetic(
        cls, content_name: str, index: int, size_bytes: int
    ) -> "Chunk":
        """A chunk standing in for ``size_bytes`` of generated content."""
        seed = f"{content_name}#{index}".encode("utf-8")
        return cls(seed, size_bytes, content_name=content_name, index=index)

    def verify(self, claimed_cid: Optional[XID] = None) -> bool:
        """Recompute the CID and compare (the receiver-side check)."""
        expected = claimed_cid if claimed_cid is not None else self.cid
        return self.compute_cid(self.seed, self.size_bytes) == expected

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Chunk) and self.cid == other.cid

    def __hash__(self) -> int:
        return hash(self.cid)

    def __repr__(self) -> str:
        label = f"{self.content_name}#{self.index}" if self.content_name else "raw"
        return f"<Chunk {label} {self.size_bytes}B cid={self.cid.short}>"
