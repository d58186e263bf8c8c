"""The content store backing an XCache instance."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import CacheMiss, ChunkIntegrityError, ConfigurationError
from repro.obs.events import CacheEvicted, CacheHit, CacheStored
from repro.xcache.chunk import Chunk
from repro.xcache.eviction import EvictionPolicy, LruEviction
from repro.xia.ids import PrincipalType, XID

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.probe import Probe


class ContentStore:
    """A capacity-bounded chunk store with pluggable eviction.

    Staged chunks can be *pinned* so cache pressure never evicts a
    chunk the Staging Manager has promised to a client before the
    client fetches it (pins are released on fetch or explicitly).
    """

    def __init__(
        self,
        capacity_bytes: float = float("inf"),
        eviction: Optional[EvictionPolicy] = None,
        clock=None,
        probe: Optional["Probe"] = None,
        name: str = "store",
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.eviction = eviction or LruEviction()
        self._clock = clock or (lambda: 0.0)
        #: Optional instrumentation probe (stores are not tied to a
        #: simulator, so the wiring code passes ``sim.probe`` in).
        self.probe = probe
        self.name = name
        self._chunks: dict[XID, Chunk] = {}
        self._pinned: set[XID] = set()
        self.used_bytes = 0
        self.hits = 0
        #: Failed :meth:`get` calls, plus each chunk request an edge
        #: router's content step found none of its CIDs for
        #: (:meth:`repro.xia.router.XIARouter.handle_packet`).
        self.misses = 0
        self.evictions = 0

    # -- queries ------------------------------------------------------------

    def __contains__(self, cid: XID) -> bool:
        return cid in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def has(self, cid: XID) -> bool:
        self._drop_expired()
        return cid in self._chunks

    def get(self, cid: XID) -> Chunk:
        """Serve a chunk (counts a hit/miss; raises on miss)."""
        self._drop_expired()
        chunk = self._chunks.get(cid)
        if chunk is None:
            self.misses += 1
            raise CacheMiss(f"chunk {cid.short} not in store")
        self.hits += 1
        probe = self.probe
        if probe is not None and probe.active:
            probe.emit(CacheHit(store=self.name, cid=cid.short))
        self.eviction.on_access(cid, self._clock())
        return chunk

    def peek(self, cid: XID) -> Optional[Chunk]:
        """Look up without touching hit/miss or recency state."""
        return self._chunks.get(cid)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- mutation ------------------------------------------------------------

    def put(self, chunk: Chunk, pin: bool = False) -> bool:
        """Insert a chunk, evicting as needed.  Returns False if the
        chunk cannot fit (bigger than capacity or everything pinned)."""
        if chunk.cid.principal_type is not PrincipalType.CID:
            raise ConfigurationError("store keys must be CIDs")
        if not chunk.verify():
            raise ChunkIntegrityError(
                f"chunk {chunk!r} failed integrity verification"
            )
        if chunk.cid in self._chunks:
            if pin:
                self._pinned.add(chunk.cid)
            return True
        if chunk.size_bytes > self.capacity_bytes:
            return False
        if not self._make_room(chunk.size_bytes):
            return False
        self._chunks[chunk.cid] = chunk
        self.used_bytes += chunk.size_bytes
        if pin:
            self._pinned.add(chunk.cid)
        probe = self.probe
        if probe is not None and probe.active:
            probe.emit(
                CacheStored(
                    store=self.name,
                    cid=chunk.cid.short,
                    size_bytes=chunk.size_bytes,
                )
            )
        self.eviction.on_insert(chunk.cid, self._clock())
        return True

    def remove(self, cid: XID) -> None:
        chunk = self._chunks.pop(cid, None)
        if chunk is not None:
            self.used_bytes -= chunk.size_bytes
            self._pinned.discard(cid)
            self.eviction.on_remove(cid)

    def pin(self, cid: XID) -> None:
        if cid not in self._chunks:
            raise CacheMiss(f"cannot pin absent chunk {cid.short}")
        self._pinned.add(cid)

    def unpin(self, cid: XID) -> None:
        self._pinned.discard(cid)

    @property
    def pinned_count(self) -> int:
        """Chunks currently pinned (flight-recorder gauge)."""
        return len(self._pinned)

    def gauges(self) -> dict[str, float]:
        """The store's sampled-state snapshot (flight recorder)."""
        return {
            "occupancy_bytes": float(self.used_bytes),
            "chunks": float(len(self._chunks)),
            "pinned": float(len(self._pinned)),
        }

    # -- internals -------------------------------------------------------------

    def _evictable(self) -> list[XID]:
        return [cid for cid in self._chunks if cid not in self._pinned]

    def _make_room(self, needed: int) -> bool:
        self._drop_expired()
        while self.used_bytes + needed > self.capacity_bytes:
            candidates = self._evictable()
            if not candidates:
                return False
            victim = self.eviction.choose_victim(candidates, self._clock())
            if victim is None:
                victim = candidates[0]
            victim_chunk = self._chunks[victim]
            self.remove(victim)
            self.evictions += 1
            probe = self.probe
            if probe is not None and probe.active:
                probe.emit(
                    CacheEvicted(
                        store=self.name,
                        cid=victim.short,
                        size_bytes=victim_chunk.size_bytes,
                    )
                )
        return True

    def _drop_expired(self) -> None:
        for cid in self.eviction.expired(self._clock()):
            if cid not in self._pinned:
                self.remove(cid)

    def __repr__(self) -> str:
        cap = (
            "inf" if self.capacity_bytes == float("inf")
            else f"{self.capacity_bytes / 1e6:.0f}MB"
        )
        return (
            f"<ContentStore {len(self)} chunks, "
            f"{self.used_bytes / 1e6:.1f}MB/{cap}, hit_ratio={self.hit_ratio:.2f}>"
        )
