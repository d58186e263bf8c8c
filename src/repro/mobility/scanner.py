"""The scanning loop: what the client's second radio can hear.

SoftStage dedicates a *sensor* interface to scanning so the data radio
never leaves its channel (§II-B "Multi-homing").  The scanner samples
the coverage timeline periodically **and** exactly at coverage-change
instants, merges in each network's NetJoin advertisement (NID, VNF
SID, cache HID), enforces physics (an AP whose coverage ended takes
the association down with it) and notifies listeners — the SoftStage
Network Sensor, or the baseline's greedy policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.mobility.association import AccessPointInfo, AssociationController
from repro.mobility.coverage import Coverage
from repro.sim import Simulator


@dataclass(frozen=True)
class VisibleNetwork:
    """One scan result entry (a heard beacon + NetJoin payload)."""

    ap: AccessPointInfo
    rss: float

    @property
    def name(self) -> str:
        return self.ap.name


ScanListener = Callable[[list[VisibleNetwork]], None]


class Scanner:
    """Drives scans off a coverage timeline, until it ends."""

    #: Seconds between periodic scans.
    scan_interval = 0.5

    def __init__(
        self,
        sim: Simulator,
        coverage: Coverage,
        controller: AssociationController,
    ) -> None:
        self.sim = sim
        self.coverage = coverage
        self.controller = controller
        #: The last window's end, walked without building the windows.
        self.horizon = coverage.end_time()
        self._listeners: list[ScanListener] = []
        self._started = False

    def subscribe(self, listener: ScanListener) -> None:
        self._listeners.append(listener)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.process(self._periodic_loop())
        self.sim.process(self._edge_loop())

    # -- scan mechanics ------------------------------------------------------

    def visible_now(self) -> list[VisibleNetwork]:
        result = []
        for ap_name, rss in self.coverage.visible_at(self.sim.now).items():
            info = self.controller.access_points.get(ap_name)
            if info is not None:
                result.append(VisibleNetwork(ap=info, rss=rss))
        result.sort(key=lambda v: v.rss, reverse=True)
        return result

    def _scan_once(self) -> None:
        visible = self.visible_now()
        self._enforce_coverage(visible)
        for listener in list(self._listeners):
            listener(visible)

    def _enforce_coverage(self, visible: list[VisibleNetwork]) -> None:
        current = self.controller.current
        if current is None:
            return
        if all(v.name != current.ap.name for v in visible):
            self.controller.disassociate()

    # -- driving processes ----------------------------------------------------

    def _periodic_loop(self):
        while self.sim.now < self.horizon:
            self._scan_once()
            yield self.sim.timeout(self.scan_interval)

    def _edge_loop(self):
        """Wake exactly when the visible set changes.

        One lazy iterator: the coverage builds its windows only as far
        as the change time this loop waits for next.
        """
        for change_at in self.coverage.change_times():
            if change_at > self.horizon:
                break
            if change_at > self.sim.now:
                yield self.sim.timeout(change_at - self.sim.now)
            self._scan_once()
