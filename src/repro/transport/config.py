"""Transport protocol parameters and calibrated presets.

The presets encode the performance character of each stack in the
paper's testbed (Fig. 5):

- ``KERNEL_TCP``: native Linux TCP — small headers, delayed ACKs,
  negligible per-packet CPU;
- ``XIA_STREAM``: the XIA prototype's transport, running in a
  user-level Click daemon — large DAG headers (two full DAGs per
  packet), an ACK per packet, and a per-packet daemon cost that caps
  the send rate at ~66 Mbps for full-size segments;
- ``XIA_CHUNK``: same stack, plus the chunk protocol's per-chunk
  request handshake and receiver-side content verification (hashing
  the chunk to check its CID).

The numeric calibration story lives in
:mod:`repro.experiments.calibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TransportConfig:
    """Parameters of one reliable-transport stack."""

    name: str
    #: Payload bytes per data segment.
    mss_bytes: int = 1290
    #: Header bytes per data segment (link + network + transport).
    header_bytes: int = 224
    #: Size of a pure ACK packet on the wire.
    ack_bytes: int = 90
    #: Send a cumulative ACK every N in-order data segments.
    ack_every: int = 1
    #: Initial congestion window (segments).
    initial_cwnd: float = 2.0
    #: Per-data-packet CPU cost at an endpoint (pacing floor), seconds.
    per_packet_cost: float = 0.0
    #: Receiver-side content verification rate in bytes/second; applied
    #: by the chunk protocol.  ``inf`` disables verification cost.
    verify_rate: float = float("inf")
    #: Fixed cost of an active transport-session migration (paper §IV-C:
    #: "a fixed overhead of 1 or 2 sec").
    migration_delay: float = 1.5
    #: Fixed per-chunk client-side cost: XCache chunk-context setup and
    #: the client<->daemon IPC round trips of one XfetchChunk call.
    #: This is what makes small chunks expensive for *both* systems in
    #: the paper's Fig. 6(a) ("the control plane messages introduce
    #: more overhead with smaller chunks").
    per_chunk_overhead: float = 0.0

    # -- the same for every stack ------------------------------------------
    #: Initial slow-start threshold (segments).
    initial_ssthresh: ClassVar[float] = 64.0
    #: Minimum / maximum retransmission timeout, seconds.
    min_rto: ClassVar[float] = 0.2
    max_rto: ClassVar[float] = 8.0
    #: Chunk-request (and migration) retransmission timeout, seconds,
    #: and retry budget.
    request_timeout: ClassVar[float] = 1.0
    request_retries: ClassVar[int] = 30

    def __post_init__(self) -> None:
        if self.mss_bytes <= 0 or self.header_bytes < 0:
            raise ConfigurationError("invalid segment geometry")
        if self.ack_every < 1:
            raise ConfigurationError("ack_every must be >= 1")
        if self.initial_cwnd < 1:
            raise ConfigurationError("initial_cwnd must be >= 1")

    def with_(self, **changes) -> "TransportConfig":
        """A modified copy (keyword arguments as for ``dataclasses.replace``)."""
        return replace(self, **changes)


#: Native Linux TCP over Ethernet: 1460B payload in 1514B frames,
#: delayed ACKs, kernel-level per-packet cost.
KERNEL_TCP = TransportConfig(
    name="linux-tcp",
    mss_bytes=1460,
    header_bytes=54,
    ack_bytes=60,
    ack_every=2,
    initial_cwnd=10.0,       # modern kernels: IW10
    per_packet_cost=1.5e-6,
)

#: XIA's user-level transport: two serialized DAGs per header, an ACK
#: per segment, and the Click daemon's per-packet cost (calibrated so a
#: wired bulk transfer tops out near the paper's 66 Mbps).
XIA_STREAM = TransportConfig(
    name="xstream",
    mss_bytes=1290,
    header_bytes=224,
    ack_bytes=100,
    ack_every=1,
    initial_cwnd=2.0,
    per_packet_cost=150e-6,
)

#: The chunk transfer protocol: Xstream's stack plus per-chunk request
#: handshakes and CID verification at the receiver (~50 MB/s hashing).
XIA_CHUNK = XIA_STREAM.with_(
    name="xchunkp",
    verify_rate=100e6,      # SHA-1 at 100 MB/s
    per_chunk_overhead=25e-3,
)
