"""802.11-style wireless links.

The wireless segment differs from a wired pipe in three ways that
matter to the paper's evaluation:

1. **MAC efficiency** — contention, interframe spaces and ACKs mean the
   application-visible rate is well below the PHY rate.  We take an
   *effective MAC rate* (e.g. ~30 Mbps for the paper's 802.11n setup)
   as the serialization bandwidth.
2. **Link-layer ARQ** — losses are mostly recovered by retransmission,
   which costs airtime (reducing throughput) and adds delay jitter
   instead of showing up as end-to-end loss...
3. **Residual loss** — ...except during deep fades, when all retries
   fail and the loss *escapes* to the transport.  With a bursty
   (Gilbert-Elliott) channel this happens at a meaningful rate, which
   is exactly why retransmitting "from a closer location" (the edge
   cache) beats retransmitting across the Internet (paper §IV-C,
   Fig. 6(d)).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.link import Link, LinkDirection
from repro.net.loss import LossModel
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.xia.packet import Packet


class WirelessDirection(LinkDirection):
    """A link direction with per-packet ARQ."""

    loss_on_arrival = False  # ARQ settles the frame's fate on air

    def __init__(
        self,
        *args,
        max_retries: int = 4,
        retry_backoff: float = 0.5e-3,
        frame_overhead: float = 150e-6,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.max_retries = int(check_non_negative("max_retries", max_retries))
        self.retry_backoff = check_non_negative("retry_backoff", retry_backoff)
        #: Fixed per-frame MAC cost (DIFS + preamble + SIFS + MAC ACK).
        self.frame_overhead = check_non_negative("frame_overhead", frame_overhead)
        #: ARQ retries so far: the one record of them (no event).
        self.retransmissions = 0

    def airtime(self, packet: "Packet") -> float:
        """Sample ARQ attempts now; airtime covers all of them.

        When every retry failed the frame is flagged ``_air_lost``: it
        holds the medium for its airtime and is booked at its tx end.
        """
        attempts = 1
        now = self.sim._now
        while self.loss.dropped(now) and attempts <= self.max_retries:
            attempts += 1
        self._air_lost = attempts > self.max_retries
        single = packet.size_bytes * 8 / self.bandwidth_bps + self.frame_overhead
        retries = attempts - 1
        self.retransmissions += retries
        return attempts * single + retries * self.retry_backoff


class WirelessLink(Link):
    """A full-duplex wireless link (client <-> access point)."""

    direction_class = WirelessDirection

    def __init__(
        self,
        sim,
        name: str,
        mac_rate_bps: float,
        delay: float = 1.0e-3,
        loss_up: Optional[LossModel] = None,
        loss_down: Optional[LossModel] = None,
        max_retries: int = 4,
        retry_backoff: float = 0.5e-3,
        frame_overhead: float = 150e-6,
        queue_bytes: float = 256_000,
    ) -> None:
        check_positive("mac_rate_bps", mac_rate_bps)
        super().__init__(
            sim,
            name,
            bandwidth_bps=mac_rate_bps,
            delay=delay,
            loss_a_to_b=loss_up,
            loss_b_to_a=loss_down,
            queue_bytes=queue_bytes,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            frame_overhead=frame_overhead,
        )
        # 802.11 is half duplex: both directions contend for one medium.
        self.backward._medium = self.forward._medium
