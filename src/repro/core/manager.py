"""The Staging Manager: composition root of the client control plane.

Wires the six Fig. 3 modules together around one client host:
Chunk Profile <- {Chunk Manager, Staging Tracker} <- Staging
Coordinator <- Network Sensor, plus the Handoff Manager, and exposes
the small surface the application (SoftStageClient) drives.  Chunks
travel through the client's own fetcher, which it hands in.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.chunk_manager import ChunkManager
from repro.core.coordinator import StagingCoordinator
from repro.core.handoff import ChunkAwarePolicy, HandoffManager, HandoffPolicy
from repro.core.network_sensor import NetworkSensor
from repro.core.policy import StagingPolicy
from repro.core.profile import ChunkProfile
from repro.core.tracker import StagingTracker
from repro.mobility.association import AssociationController
from repro.mobility.scanner import Scanner, VisibleNetwork
from repro.sim import Simulator
from repro.transport.chunkfetch import ChunkFetcher

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nodes import Host
    from repro.xcache.publisher import PublishedContent


class StagingManager:
    """Everything SoftStage runs on the client side."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        fetcher: ChunkFetcher,
        controller: AssociationController,
        scanner: Scanner,
        handoff_policy: Optional[HandoffPolicy] = None,
        staging_policy: Optional[StagingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.profile = ChunkProfile()
        self.tracker = StagingTracker(sim, host, self.profile)
        self.sensor = NetworkSensor(sim, scanner, controller)
        self.coordinator = StagingCoordinator(
            sim, self.profile, self.tracker, self.sensor,
            policy=staging_policy,
        )
        self.handoff_manager = HandoffManager(
            sim,
            controller,
            scanner,
            policy=handoff_policy or ChunkAwarePolicy(),
            prestage=self._prestage_into,
        )
        self.chunk_manager = ChunkManager(
            sim,
            fetcher,
            self.profile,
            handoff_manager=self.handoff_manager,
            chunk_delivered=self.coordinator.notify_chunk_delivered,
        )

    # -- content registration (step 3 of Fig. 2) --------------------------------

    def register_content(self, content: "PublishedContent") -> None:
        self.profile.register_content(content)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self.coordinator.start()

    def stop(self) -> None:
        self.coordinator.stop()

    # -- chunk-aware handoff pre-staging (step 4 of Fig. 1) ------------------------

    def _prestage_into(self, target: VisibleNetwork) -> None:
        """Stage upcoming chunks into the *target* network's VNF via the
        current network, before the handoff happens."""
        vnf = self.sensor.vnf_address_of(target)
        if vnf is None:
            return
        count = self.coordinator.prestage_count()
        records = self.profile.next_to_stage(count)
        if records:
            self.tracker.signal(records, vnf, label=f"prestage:{target.name}")

    def __repr__(self) -> str:
        return f"<StagingManager {self.profile!r}>"
