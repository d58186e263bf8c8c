"""The Handoff Manager and its policies.

Two policies from the paper (§IV-D):

- **Default** (:class:`RssGreedyPolicy`): "blindly switches to the
  network with a stronger received signal strength";
- **Content-aware** (:class:`ChunkAwarePolicy`): picks targets the same
  way, but defers the switch until the chunk currently being fetched
  completes — no transmission is wasted on an interrupted chunk or an
  avoidable active-session migration — and announces the target ahead
  of time so SoftStage can pre-stage into the new network *via the
  current one* (step 4 of Fig. 1).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.mobility.association import Association, AssociationController
from repro.mobility.scanner import Scanner, VisibleNetwork
from repro.obs.events import HandoffCompleted, HandoffDeferred, HandoffStarted
from repro.sim import Simulator


class HandoffPolicy(abc.ABC):
    """Chooses handoff targets and timing."""

    #: Whether switches wait for chunk boundaries.
    content_aware = False

    @abc.abstractmethod
    def select_target(
        self,
        visible: list[VisibleNetwork],
        current: Optional[Association],
        hysteresis_db: float,
    ) -> Optional[VisibleNetwork]:
        """The network to move to, or None to stay."""


class RssGreedyPolicy(HandoffPolicy):
    """Switch whenever somewhere louder exists (the legacy default)."""

    content_aware = False

    def select_target(self, visible, current, hysteresis_db):
        if not visible:
            return None
        strongest = visible[0]
        if current is None:
            return strongest
        if strongest.name == current.ap.name:
            return None
        current_rss = next(
            (v.rss for v in visible if v.name == current.ap.name), None
        )
        if current_rss is None:
            # Current AP no longer audible; take the best we can hear.
            return strongest
        if strongest.rss > current_rss + hysteresis_db:
            return strongest
        return None


class ChunkAwarePolicy(RssGreedyPolicy):
    """Same target selection; execution deferred to chunk boundaries."""

    content_aware = True


class HandoffManager:
    """Executes policy decisions against the association controller."""

    #: RSS hysteresis a target must beat the current network by, dB.
    hysteresis_db = 3.0

    def __init__(
        self,
        sim: Simulator,
        controller: AssociationController,
        scanner: Scanner,
        policy: Optional[HandoffPolicy] = None,
        prestage: Optional[Callable[[VisibleNetwork], None]] = None,
    ) -> None:
        self.sim = sim
        self.controller = controller
        self.policy = policy or RssGreedyPolicy()
        #: Called once per deferred-handoff target so SoftStage can
        #: pre-stage into the target network before switching.
        self.prestage = prestage
        self.pending_target: Optional[VisibleNetwork] = None
        self.handoffs = 0
        #: Set by the Chunk Manager while a chunk transfer is active.
        self.fetch_active = False
        scanner.subscribe(self.on_scan)

    # -- scan-driven decisions -------------------------------------------------

    _join_inflight: bool = False

    def on_scan(self, visible: list[VisibleNetwork]) -> None:
        if self._join_inflight:
            return  # a join is already in flight; decide on the next scan
        current = self.controller.current
        if current is None:
            # Offline: join the strongest network as soon as one appears.
            self.pending_target = None
            if visible:
                self._execute(visible[0])
            return
        target = self.policy.select_target(visible, current, self.hysteresis_db)
        if target is None:
            if (
                self.pending_target is not None
                and all(v.name != self.pending_target.name for v in visible)
            ):
                self.pending_target = None  # target faded away; abandon
            return
        if self.policy.content_aware and self.fetch_active:
            if (
                self.pending_target is None
                or self.pending_target.name != target.name
            ):
                self.pending_target = target
                probe = self.sim.probe
                if probe.active:
                    probe.emit(HandoffDeferred(target=target.name))
                if self.prestage is not None:
                    self.prestage(target)
            return
        self._execute(target)

    # -- execution ------------------------------------------------------------

    _executing_target: str = ""
    _executing_since: float = 0.0

    def _execute(self, target: VisibleNetwork) -> None:
        self.pending_target = None
        self.handoffs += 1
        self._join_inflight = True
        self._executing_target = target.name
        self._executing_since = self.sim.now
        probe = self.sim.probe
        if probe.active:
            probe.emit(HandoffStarted(target=target.name))
        join = self.sim.process(self.controller.associate(target.name))
        join.callbacks.append(self._join_finished)

    def _join_finished(self, event) -> None:
        self._join_inflight = False
        probe = self.sim.probe
        if probe.active:
            probe.emit(
                HandoffCompleted(
                    target=self._executing_target,
                    duration=self.sim.now - self._executing_since,
                )
            )

    def on_chunk_boundary(self) -> None:
        """Called by the Chunk Manager when a chunk transfer finishes;
        executes any deferred handoff now (between chunk transfers)."""
        if self.pending_target is not None:
            self._execute(self.pending_target)

    def __repr__(self) -> str:
        return (
            f"<HandoffManager policy={type(self.policy).__name__} "
            f"handoffs={self.handoffs}>"
        )
