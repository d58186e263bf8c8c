"""SoftStageClient: the application-facing download API.

An FTP-style client application that retrieves a stream of content
objects through SoftStage.  The staging machinery is entirely hidden
behind :meth:`download` — exactly the paper's application-transparency
goal: the app calls the delegation API per chunk and everything else
(staging, handoff, migration, fallback) happens underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.config import SoftStageConfig
from repro.core.handoff import HandoffPolicy
from repro.core.manager import StagingManager
from repro.core.policy import StagingPolicy
from repro.mobility.association import AssociationController
from repro.mobility.scanner import Scanner
from repro.sim import Simulator
from repro.transport.chunkfetch import FetchOutcome
from repro.transport.reliable import TransportEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nodes import Host
    from repro.xcache.publisher import PublishedContent


#: The outcome counts every summary of a download carries (sweep
#: summaries, run-registry metrics), in their recorded order.
COUNTER_FIELDS = (
    "bytes_received", "chunks_completed", "chunks_from_edge",
    "chunks_from_origin", "fallbacks", "handoffs", "staging_signals",
)


@dataclass
class DownloadResult:
    """What a completed (or deadline-bounded) download reports."""

    content_name: str
    bytes_received: int
    duration: float
    chunks_completed: int
    chunks_total: int
    chunks_from_edge: int
    chunks_from_origin: int
    fallbacks: int
    handoffs: int
    staging_signals: int
    outcomes: list[FetchOutcome] = field(default_factory=list)

    def counters(self) -> dict[str, int]:
        """``{name: count}`` over :data:`COUNTER_FIELDS`."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    @property
    def throughput_bps(self) -> float:
        return self.bytes_received * 8 / self.duration if self.duration > 0 else 0.0

    @property
    def completed(self) -> bool:
        return self.chunks_completed >= self.chunks_total

    @property
    def edge_fraction(self) -> float:
        if self.chunks_completed == 0:
            return 0.0
        return self.chunks_from_edge / self.chunks_completed


class SoftStageClient:
    """FTP-style client application running over SoftStage."""

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        endpoint: TransportEndpoint,
        controller: AssociationController,
        scanner: Scanner,
        config: Optional[SoftStageConfig] = None,
        handoff_policy: Optional[HandoffPolicy] = None,
        staging_policy: Optional[StagingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.manager = StagingManager(
            sim,
            host,
            endpoint,
            controller,
            scanner,
            config=config,
            handoff_policy=handoff_policy,
            staging_policy=staging_policy,
        )

    def download(self, content: "PublishedContent", deadline: Optional[float] = None):
        """Process: download every chunk of ``content`` in order.

        Stops early at ``deadline`` (simulated seconds, absolute) —
        used by the trace-driven experiment, which measures how much
        content fits inside a fixed drive.
        """
        manager = self.manager
        manager.register_content(content)
        manager.start()
        started = self.sim.now
        outcomes: list[FetchOutcome] = []
        bytes_received = 0
        try:
            for chunk in content.chunks:
                if deadline is not None and self.sim.now >= deadline:
                    break
                fetch = self.sim.process(
                    manager.chunk_manager.xfetch_chunk_star(chunk.cid)
                )
                if deadline is None:
                    outcome = yield fetch
                else:
                    result = yield self.sim.any_of(
                        [fetch, self.sim.timeout(max(deadline - self.sim.now, 0.0))]
                    )
                    if fetch not in result:
                        break
                    outcome = result[fetch]
                outcomes.append(outcome)
                bytes_received += outcome.bytes_received
        finally:
            manager.stop()
        return DownloadResult(
            content_name=content.name,
            bytes_received=bytes_received,
            duration=self.sim.now - started,
            chunks_completed=len(outcomes),
            chunks_total=len(content.chunks),
            chunks_from_edge=manager.chunk_manager.chunks_from_edge,
            chunks_from_origin=manager.chunk_manager.chunks_from_origin,
            fallbacks=manager.chunk_manager.fallbacks,
            handoffs=manager.handoff_manager.handoffs,
            staging_signals=manager.tracker.signals_sent,
            outcomes=outcomes,
        )
