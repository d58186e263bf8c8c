"""The Staging Tracker: signalling chunks to Staging VNFs.

Told by the coordinator *how many* chunks to stage, the tracker looks
up their addresses in the Chunk Profile, forwards them to the chosen
Staging VNF (step 4 in Fig. 2) and flips their state to PENDING.  When
the "chunk staged" message comes back (step 6) it rewrites the chunk's
address with the edge network's NID/HID, marks it READY and records
the staging latency and control RTT.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.profile import ChunkProfile, ChunkRecord
from repro.core.states import StagingState
from repro.obs.events import ChunkStaged, StagingSignalled, StaleStagingResponse
from repro.sim import Simulator
from repro.xia.dag import DagAddress
from repro.xia.ids import XID
from repro.xia.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.net.nodes import Host


class StagingTracker:
    """Client-side staging signal sender / response handler."""

    def __init__(self, sim: Simulator, host: "Host", profile: ChunkProfile) -> None:
        self.sim = sim
        self.host = host
        self.profile = profile
        self.signals_sent = 0
        self.responses_received = 0
        self.stale_responses = 0
        self._request_sent_at: dict[XID, float] = {}
        host.register_handler(PacketType.STAGE_RESPONSE, self.on_response)

    # -- outgoing signals -------------------------------------------------

    def signal(
        self,
        records: list[ChunkRecord],
        vnf_address: DagAddress,
        label: str = "",
    ) -> int:
        """Ask the VNF at ``vnf_address`` to stage ``records``.

        Returns the number of chunks signalled.  Safe to call for
        already-PENDING records (re-signal after a lost response).
        """
        if not records:
            return 0
        now = self.sim.now
        chunk_entries = []
        for record in records:
            chunk_entries.append(
                {"cid": record.cid, "raw_dag": record.raw_dag, "size": record.size_bytes}
            )
            record.staging_state = StagingState.PENDING
            record.staging_requested_at = now
            self._request_sent_at.setdefault(record.cid, now)
        request = Packet(
            PacketType.STAGE_REQUEST,
            dst=vnf_address,
            src=self._local_dag(),
            payload={"chunks": chunk_entries},
            size_bytes=120 + 64 * len(chunk_entries),
        )
        self.host.send(request)
        self.signals_sent += 1
        probe = self.sim.probe
        if probe.active:
            probe.emit(
                StagingSignalled(
                    count=len(chunk_entries),
                    label=label,
                    cids=",".join(r.cid.short for r in records),
                )
            )
        return len(chunk_entries)

    def _local_dag(self) -> DagAddress:
        nid = getattr(self.host, "current_nid", None)
        return DagAddress.host(self.host.hid, nid)

    # -- incoming confirmations --------------------------------------------------

    def on_response(self, packet: Packet, port: "Port") -> None:
        payload = packet.payload
        cid: XID = payload["cid"]
        probe = self.sim.probe
        if cid not in self.profile:
            self.stale_responses += 1
            if probe.active:
                probe.emit(StaleStagingResponse(cid=cid.short))
            return
        record = self.profile.get(cid)
        if record.staging_state is StagingState.READY:
            # Duplicate announcement (re-signalled chunk): ignore.
            self.stale_responses += 1
            if probe.active:
                probe.emit(StaleStagingResponse(cid=cid.short))
            return
        self.responses_received += 1
        nid, hid = payload["nid"], payload["hid"]
        staging_latency: Optional[float] = payload.get("staging_latency")
        control_rtt = self._control_rtt(cid, staging_latency)
        record.mark_staged(
            new_dag=record.raw_dag.replace_fallback(nid, hid),
            nid=nid,
            hid=hid,
            staging_latency=staging_latency,
            fetch_rtt=control_rtt,
        )
        self.profile.observe_staging(staging_latency, control_rtt)
        if probe.active:
            probe.emit(
                ChunkStaged(
                    cid=cid.short,
                    staging_latency=staging_latency,
                    control_rtt=control_rtt,
                )
            )

    def _control_rtt(self, cid: XID, staging_latency: Optional[float]) -> Optional[float]:
        sent_at = self._request_sent_at.pop(cid, None)
        if sent_at is None:
            return None
        elapsed = self.sim.now - sent_at
        if staging_latency:
            elapsed -= staging_latency
        return max(elapsed, 1e-4)

    def __repr__(self) -> str:
        return (
            f"<StagingTracker signals={self.signals_sent} "
            f"responses={self.responses_received}>"
        )
