"""The mobile client: one chassis, one fetch rule per system.

Every system the evaluation compares is the same FTP-style application
on the same mobile host: it joins the networks its handoff policy
picks, re-announces its transport sessions after every move, and
downloads a content object chunk by chunk.  :class:`MobileClient` is
that chassis; a *system* adds only how one chunk is fetched.
:class:`SoftStageClient` fetches through the delegation API
(``XfetchChunk*``) with the staging machinery entirely hidden behind
:meth:`~MobileClient.download` — exactly the paper's
application-transparency goal: the app swaps one call per chunk and
everything else (staging, handoff, migration, fallback) happens
underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.handoff import HandoffManager, HandoffPolicy, RssGreedyPolicy
from repro.core.manager import StagingManager
from repro.core.policy import StagingPolicy
from repro.errors import ConfigurationError
from repro.mobility.association import Association, AssociationController
from repro.mobility.scanner import Scanner
from repro.sim import Simulator
from repro.transport.chunkfetch import ChunkFetcher, FetchOutcome
from repro.transport.reliable import TransportEndpoint
from repro.xia.dag import DagAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nodes import Host
    from repro.xcache.publisher import PublishedContent
    from repro.xia.ids import XID


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


class MobileClient:
    """The chassis: mobility wiring plus the in-order download loop.

    Owns the connectivity-gated :class:`ChunkFetcher`, the
    migrate-on-attach hook and :meth:`download`.  Subclasses say how
    one chunk is fetched (:meth:`fetch_chunk`) and may wire more of a
    control plane in (:meth:`_wire`, :meth:`begin`/:meth:`end`,
    :meth:`tallies`).
    """

    #: Fetch chunks as one byte stream: no per-chunk context setup and
    #: no CID verification (what a host-based download pays neither of).
    stream = False

    def __init__(
        self,
        sim: Simulator,
        host: "Host",
        endpoint: TransportEndpoint,
        controller: AssociationController,
        scanner: Scanner,
        handoff_policy: Optional[HandoffPolicy] = None,
        staging_policy: Optional[StagingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.endpoint = endpoint
        transport = None
        if self.stream:
            transport = endpoint.config.with_(
                verify_rate=float("inf"), per_chunk_overhead=0.0
            )
        self.fetcher = ChunkFetcher(
            sim, endpoint, config=transport,
            wait_for_connectivity=controller.wait_attached,
        )
        # Subscription order is behaviour: whatever a system wires in
        # hears each scan and attach *before* the migration hook, so a
        # policy's attach-time staging signal reaches the wireless queue
        # ahead of the session-migration packets.
        self.handoff_manager = self._wire(
            controller, scanner, handoff_policy, staging_policy
        )
        controller.on_attach(self._on_attach)

    def _wire(
        self,
        controller: AssociationController,
        scanner: Scanner,
        handoff_policy: Optional[HandoffPolicy],
        staging_policy: Optional[StagingPolicy],
    ) -> HandoffManager:
        """Build the system's control plane; returns its Handoff Manager.

        A stock client associates with the strongest audible network
        and simply waits out coverage gaps.
        """
        if staging_policy is not None:
            raise ConfigurationError(
                f"{type(self).__name__} stages nothing: staging policies "
                "only apply to the softstage system"
            )
        return HandoffManager(
            self.sim, controller, scanner,
            policy=handoff_policy or RssGreedyPolicy(),
        )

    def _on_attach(self, association: Association) -> None:
        """Re-announce every live transport session from the new network."""
        new_dag = DagAddress.host(self.host.hid, association.ap.nid)
        self.endpoint.migrate_receivers(new_dag)

    # -- what a system supplies --------------------------------------------

    def fetch_chunk(self, cid: "XID", address: DagAddress):
        """The process body that retrieves one chunk (a generator)."""
        raise NotImplementedError

    def begin(self, content: "PublishedContent") -> None:
        """Called before the first chunk of ``content`` is requested."""

    def end(self) -> None:
        """Called when the download returns, completes or not."""

    def tallies(self, outcomes: list[FetchOutcome]) -> dict[str, int]:
        """Where the chunks came from; a system that stages nothing
        fetched every one from the origin."""
        return {
            "chunks_from_edge": 0,
            "chunks_from_origin": len(outcomes),
            "fallbacks": 0,
            "staging_signals": 0,
        }

    # -- the download loop ---------------------------------------------------

    def download(self, content: "PublishedContent", deadline: Optional[float] = None):
        """Process: download every chunk of ``content`` in order.

        Stops early at ``deadline`` (simulated seconds, absolute) —
        used by the trace-driven experiment, which measures how much
        content fits inside a fixed drive.
        """
        self.begin(content)
        started = self.sim.now
        outcomes: list[FetchOutcome] = []
        bytes_received = 0
        try:
            for chunk, address in zip(content.chunks, content.addresses):
                if deadline is not None and self.sim.now >= deadline:
                    break
                fetch = self.sim.process(self.fetch_chunk(chunk.cid, address))
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
            self.end()
        return DownloadResult(
            content_name=content.name,
            bytes_received=bytes_received,
            duration=self.sim.now - started,
            chunks_completed=len(outcomes),
            chunks_total=len(content.chunks),
            handoffs=self.handoff_manager.handoffs,
            outcomes=outcomes,
            **self.tallies(outcomes),
        )


class SoftStageClient(MobileClient):
    """The FTP-style client running over SoftStage (``XfetchChunk*``)."""

    def _wire(
        self,
        controller: AssociationController,
        scanner: Scanner,
        handoff_policy: Optional[HandoffPolicy],
        staging_policy: Optional[StagingPolicy],
    ) -> HandoffManager:
        self.manager = StagingManager(
            self.sim,
            self.host,
            self.fetcher,
            controller,
            scanner,
            handoff_policy=handoff_policy,
            staging_policy=staging_policy,
        )
        return self.manager.handoff_manager

    def fetch_chunk(self, cid: "XID", address: DagAddress):
        return self.manager.chunk_manager.xfetch_chunk_star(cid)

    def begin(self, content: "PublishedContent") -> None:
        self.manager.register_content(content)
        self.manager.start()

    def end(self) -> None:
        self.manager.stop()

    def tallies(self, outcomes: list[FetchOutcome]) -> dict[str, int]:
        chunk_manager = self.manager.chunk_manager
        return {
            "chunks_from_edge": chunk_manager.chunks_from_edge,
            "chunks_from_origin": chunk_manager.chunks_from_origin,
            "fallbacks": chunk_manager.fallbacks,
            "staging_signals": self.manager.tracker.signals_sent,
        }
