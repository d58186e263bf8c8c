"""Per-node packet-processing cost model.

The XIA prototype runs as a user-level Click daemon, so each packet
pays a context-switch/copy cost that kernel TCP does not.  This is the
mechanism behind the paper's Fig. 5 (Xstream caps at ~66 Mbps on a
wired segment where Linux TCP reaches ~95 Mbps).  We model a node's
packet path as a single server: each packet needs ``per_packet_seconds``
of CPU, packets queue FIFO for it, and the resulting delay is what the
node adds before a packet can be forwarded or delivered.
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.util.validation import check_non_negative


class ProcessingModel:
    """A single-server CPU for a node's packet path: its state.

    :meth:`repro.net.nodes.Device.receive` does the per-packet
    arithmetic (queueing behind ``_busy_until`` plus the packet's own
    ``per_packet_seconds``) where the delay is used.
    """

    def __init__(self, sim: Simulator, per_packet_seconds: float = 0.0) -> None:
        self.sim = sim
        self.per_packet_seconds = check_non_negative(
            "per_packet_seconds", per_packet_seconds
        )
        self._busy_until = 0.0

    def __repr__(self) -> str:
        return f"ProcessingModel(per_packet={self.per_packet_seconds * 1e6:.1f}us)"
