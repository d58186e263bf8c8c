"""XIA packets.

A packet carries a destination DAG, a source DAG, a principal-specific
type, and an opaque payload.  Because this is a simulation, payloads
are Python objects and ``size_bytes`` declares how big the packet is on
the wire (headers included).

Two fast-path mechanisms live here (see DESIGN.md §10):

- the visited set a router updates while walking the destination DAG
  is an integer bitmask over the DAG's node indices
  (:attr:`Packet.visited_mask`), with :attr:`Packet.visited` /
  :meth:`Packet.mark_visited` kept as set-based shims;
- a module-level packet free list mirrored on
  ``Simulator.pooled_event``: transports draw DATA/ACK/request packets
  from :meth:`Packet.acquire` and hand them back with
  :meth:`Packet.release` at end of life, so a steady-state transfer
  allocates no packet objects.  ``set_packet_poison(True)`` turns
  recycling into quarantine-and-poison, making any use-after-release
  raise instead of silently reading recycled state.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro.errors import PacketLifecycleError
from repro.xia.dag import DagAddress
from repro.xia.ids import XID

#: XIA header size used for on-wire accounting.  The real header is
#: variable-length (it serializes two DAGs); 64 bytes is the common case
#: for the shapes SoftStage uses and close to the prototype's figure.
XIA_HEADER_BYTES = 64

_packet_ids = itertools.count(1)


class PacketType(enum.Enum):
    """Packet kinds used by the transports and the control plane."""

    DATA = "data"
    ACK = "ack"
    SYN = "syn"
    SYN_ACK = "syn-ack"
    FIN = "fin"
    CHUNK_REQUEST = "chunk-request"
    CHUNK_RESPONSE = "chunk-response"
    STAGE_REQUEST = "stage-request"
    STAGE_RESPONSE = "stage-response"
    MIGRATE = "migrate"
    MIGRATE_ACK = "migrate-ack"
    BEACON = "beacon"
    CONTROL = "control"


class _Poison:
    """Sentinel installed on released packets in poison mode.

    Any attribute access raises, so a transport touching a recycled
    packet fails loudly at the exact use site instead of reading
    whatever the next flow wrote into the object.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        raise PacketLifecycleError(
            f"use-after-release: read .{name} of a recycled packet "
            "(poison mode)"
        )

    def __getitem__(self, key):
        raise PacketLifecycleError(
            f"use-after-release: read [{key!r}] of a recycled packet "
            "(poison mode)"
        )

    def __iter__(self):
        raise PacketLifecycleError(
            "use-after-release: iterated a recycled packet field "
            "(poison mode)"
        )

    def __bool__(self) -> bool:
        raise PacketLifecycleError(
            "use-after-release: truth-tested a recycled packet field "
            "(poison mode)"
        )

    def _no_compare(self, other):
        raise PacketLifecycleError(
            "use-after-release: compared a recycled packet field "
            "(poison mode)"
        )

    __lt__ = __le__ = __gt__ = __ge__ = _no_compare

    def __repr__(self) -> str:
        return "<poisoned>"


_POISON: Any = _Poison()

# -- the free list -----------------------------------------------------------

_pool: list["Packet"] = []
#: Free-list size cap: beyond this, released packets go to the GC.  The
#: working set is bounded by packets in flight (cwnd + ACK clock), so
#: the cap only matters after pathological bursts.
POOL_LIMIT = 1024

#: When True, ``release`` poisons and quarantines instead of recycling
#: (deterministic use-after-release detection; debug only).
POISON_RECYCLED = False

#: When True, ``acquire`` always allocates (parity testing).
POOL_DISABLED = False

pool_reuses = 0
pool_allocs = 0
pool_releases = 0


def set_packet_poison(enabled: bool) -> None:
    """Debug mode: poison released packets instead of recycling them."""
    global POISON_RECYCLED
    POISON_RECYCLED = bool(enabled)


def set_packet_pool(enabled: bool) -> None:
    """Disable/enable recycling (releases drop to the GC when off)."""
    global POOL_DISABLED
    POOL_DISABLED = not enabled
    if POOL_DISABLED:
        _pool.clear()


def packet_pool_stats() -> dict[str, int]:
    """Free-list telemetry (module-wide; per-process, like the pool)."""
    return {
        "reuses": pool_reuses,
        "allocs": pool_allocs,
        "releases": pool_releases,
        "size": len(_pool),
    }


class Packet:
    """A single XIA packet in flight."""

    __slots__ = (
        "packet_id",
        "ptype",
        "dst",
        "src",
        "payload",
        "size_bytes",
        "session_id",
        "seq",
        "visited_mask",
        "_pooled",
        "_released",
    )

    def __init__(
        self,
        ptype: PacketType,
        dst: DagAddress,
        src: DagAddress,
        payload: Any = None,
        size_bytes: int = XIA_HEADER_BYTES,
        session_id: Optional[int] = None,
        seq: int = 0,
    ) -> None:
        if size_bytes < XIA_HEADER_BYTES:
            size_bytes = XIA_HEADER_BYTES
        self.packet_id = next(_packet_ids)
        self.ptype = ptype
        self.dst = dst
        self.src = src
        self.payload = payload
        self.size_bytes = int(size_bytes)
        self.session_id = session_id
        self.seq = seq
        #: Bitmask over ``dst.plan`` node indices: XIDs already
        #: satisfied along the DAG (updated by routers).
        self.visited_mask = 0
        self._pooled = False
        self._released = False

    # -- free list -----------------------------------------------------------

    @classmethod
    def acquire(
        cls,
        ptype: PacketType,
        dst: DagAddress,
        src: DagAddress,
        payload: Any = None,
        size_bytes: int = XIA_HEADER_BYTES,
        session_id: Optional[int] = None,
        seq: int = 0,
    ) -> "Packet":
        """A packet from the free list (or a fresh one).

        Mirrors ``Simulator.pooled_event``: only for packets whose end
        of life is explicit — the transports release DATA/ACK/request
        packets in their receive handlers.  Recycled packets get a
        fresh ``packet_id``, so id-based bookkeeping never sees reuse.
        """
        global pool_reuses, pool_allocs
        if _pool and not POOL_DISABLED:
            packet = _pool.pop()
            pool_reuses += 1
            if size_bytes < XIA_HEADER_BYTES:
                size_bytes = XIA_HEADER_BYTES
            packet.packet_id = next(_packet_ids)
            packet.ptype = ptype
            packet.dst = dst
            packet.src = src
            packet.payload = payload
            packet.size_bytes = int(size_bytes)
            packet.session_id = session_id
            packet.seq = seq
            packet.visited_mask = 0
            packet._released = False
            return packet
        pool_allocs += 1
        packet = cls(
            ptype, dst, src, payload=payload, size_bytes=size_bytes,
            session_id=session_id, seq=seq,
        )
        packet._pooled = True
        return packet

    def release(self) -> None:
        """Hand the packet back to the free list (end of life).

        No-op for packets built with the plain constructor — tests and
        one-shot control-plane senders keep full ownership of those.
        Double release of a pooled packet raises.  In poison mode the
        packet is scrubbed and quarantined instead of recycled.
        """
        global pool_releases
        if not self._pooled:
            return
        if self._released:
            raise PacketLifecycleError(
                f"packet #{self.packet_id} released twice"
            )
        self._released = True
        pool_releases += 1
        if POISON_RECYCLED:
            # ptype stays intact so the demux still routes the stale
            # packet to a real handler, which then trips on its first
            # data-field read — the realistic use-after-release shape.
            self.dst = _POISON
            self.src = _POISON
            self.payload = _POISON
            self.session_id = _POISON
            self.seq = _POISON
            return
        if POOL_DISABLED or len(_pool) >= POOL_LIMIT:
            return
        # Drop references so a pooled packet pins neither chunks nor
        # addresses (payload dicts are owned by their senders).
        self.dst = None  # type: ignore[assignment]
        self.src = None  # type: ignore[assignment]
        self.payload = None
        _pool.append(self)

    # -- visited-set shims ---------------------------------------------------

    @property
    def visited(self) -> frozenset[XID]:
        """XIDs already satisfied along the DAG, as a set (shim over
        :attr:`visited_mask`; membership is relative to ``dst``'s DAG,
        the only thing the forwarding walk ever tests against)."""
        mask = self.visited_mask
        if not mask:
            return frozenset()
        return self.dst.plan.visited_xids(mask)

    @visited.setter
    def visited(self, xids) -> None:
        self.visited_mask = self.dst.plan.mask_of(xids)

    def mark_visited(self, xid: XID) -> None:
        bit = self.dst.plan.bit_of.get(xid)
        if bit:
            self.visited_mask |= bit

    def __repr__(self) -> str:
        if self._released:
            return f"<Packet #{self.packet_id} released>"
        return (
            f"<Packet #{self.packet_id} {self.ptype.value} "
            f"{self.size_bytes}B seq={self.seq} sess={self.session_id} "
            f"dst={self.dst.intent.short}>"
        )
