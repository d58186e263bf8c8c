"""The Network Sensor: scanning, VNF discovery, gap statistics.

Uses the client's second radio (via the shared
:class:`~repro.mobility.scanner.Scanner`) to keep a fresh view of
reachable networks, their RSS and their NetJoin advertisements (which
carry the staging VNF's SID and the edge XCache's HID).  It also
tracks *observed* disconnection durations — the reactive substitute
for mobility prediction the coordinator uses to size its signal-ahead
window.
"""

from __future__ import annotations

from typing import Optional

from repro.core.profile import EwmaEstimator
from repro.core.vnf import vnf_address
from repro.mobility.association import Association, AssociationController
from repro.mobility.scanner import Scanner, VisibleNetwork
from repro.obs.events import CoverageGap, EncounterEnded
from repro.sim import Simulator
from repro.xia.dag import DagAddress


class NetworkSensor:
    """Client-side view of the surrounding edge networks."""

    def __init__(
        self,
        sim: Simulator,
        scanner: Scanner,
        controller: AssociationController,
    ) -> None:
        self.sim = sim
        self.scanner = scanner
        self.controller = controller
        self.last_scan: list[VisibleNetwork] = []
        # Mobility statistics move slowly: weight 0.3 on the newest
        # gap / encounter.
        self.gap_duration = EwmaEstimator(0.3)
        self.encounter_duration = EwmaEstimator(0.3)
        self._detached_at: Optional[float] = None
        scanner.subscribe(self._on_scan)
        controller.on_attach(self._on_attach)
        controller.on_detach(self._on_detach)

    # -- scan bookkeeping ---------------------------------------------------

    def _on_scan(self, visible: list[VisibleNetwork]) -> None:
        self.last_scan = visible

    def _on_attach(self, association: Association) -> None:
        if self._detached_at is not None:
            gap = self.sim.now - self._detached_at
            self.gap_duration.observe(gap)
            self._detached_at = None
            probe = self.sim.probe
            if probe.active:
                probe.emit(CoverageGap(duration=gap))

    def _on_detach(self, association: Association) -> None:
        self._detached_at = self.sim.now
        encounter = self.sim.now - association.since
        self.encounter_duration.observe(encounter)
        probe = self.sim.probe
        if probe.active:
            probe.emit(EncounterEnded(duration=encounter))

    # -- queries ---------------------------------------------------------------

    def vnf_address_of(self, visible_or_info) -> Optional[DagAddress]:
        """Service DAG of an edge network's staging VNF, if advertised."""
        return vnf_address(visible_or_info)

    def current_vnf_address(self) -> Optional[DagAddress]:
        """The staging VNF of the currently-joined network (None when
        offline or when the network has no VNF — the fallback case)."""
        current = self.controller.current
        if current is None:
            return None
        return self.vnf_address_of(current.ap)

    def expected_gap(self, default: float) -> float:
        """EWMA of observed disconnection durations (reactive)."""
        return self.gap_duration.value_or(default)
