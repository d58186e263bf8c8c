"""The Chunk Manager: the ``XfetchChunk*`` delegation API.

Client applications call :meth:`ChunkManager.xfetch_chunk_star` with a
CID and get the chunk, never learning where it came from: the manager
polls the Chunk Profile for the freshest address (the staged edge copy
when one is READY, the origin otherwise), honours any deferred
chunk-aware handoff before starting the next transfer, falls back to
the origin DAG when the edge copy cannot be reached, and feeds every
observation (fetch latency, serving location) back into the profile.
It fetches through the client's own connectivity-gated
:class:`~repro.transport.chunkfetch.ChunkFetcher`; keeping the
transport sessions alive across moves is the client chassis's job.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.handoff import HandoffManager
from repro.core.profile import ChunkProfile
from repro.core.states import StagingState
from repro.errors import TransportError
from repro.obs.events import ChunkFetched
from repro.sim import Simulator
from repro.transport.chunkfetch import ChunkFetcher, FetchOutcome
from repro.xia.ids import XID


class ChunkManager:
    """Location-transparent chunk retrieval for client applications."""

    #: Per-chunk control-plane cost of the delegation API, seconds: the
    #: extra client<->Staging-Manager IPC round trips of one
    #: XfetchChunk* call (profile poll, state updates, staging
    #: signalling).  The paper's Fig. 6(a): "the control plane messages
    #: introduce more overhead with smaller chunks".
    xfetch_control_overhead = 0.06

    def __init__(
        self,
        sim: Simulator,
        fetcher: ChunkFetcher,
        profile: ChunkProfile,
        handoff_manager: Optional[HandoffManager] = None,
        chunk_delivered: Optional[Callable[[XID], None]] = None,
    ) -> None:
        self.sim = sim
        self.fetcher = fetcher
        self.profile = profile
        self.handoff_manager = handoff_manager
        #: Notified after every delivered chunk (policy lifecycle hook).
        self.chunk_delivered = chunk_delivered
        self.chunks_from_edge = 0
        self.chunks_from_origin = 0
        self.fallbacks = 0

    # -- the delegation API -----------------------------------------------------

    def xfetch_chunk_star(self, cid: XID):
        """Process: fetch one chunk with location transparency."""
        record = self.profile.get(cid)
        handoff = self.handoff_manager

        # A chunk-aware handoff deferred to this boundary happens first.
        if handoff is not None and handoff.pending_target is not None:
            handoff.on_chunk_boundary()
            # Give the association a chance to complete before fetching.
            yield self.sim.timeout(0.0)

        started = self.sim.now
        fell_back = False
        yield self.sim.timeout(self.xfetch_control_overhead)
        address = record.best_dag
        if handoff is not None:
            handoff.fetch_active = True
        try:
            outcome = yield self.sim.process(self.fetcher.fetch(address))
        except TransportError:
            if address == record.raw_dag:
                raise
            # The staged copy is unreachable (edge cache gone, stale
            # announcement): fall back to the origin (Table II).
            self.fallbacks += 1
            fell_back = True
            record.staging_state = StagingState.DONE
            record.new_dag = None
            outcome = yield self.sim.process(self.fetcher.fetch(record.raw_dag))
        finally:
            if handoff is not None:
                handoff.fetch_active = False

        self._account(record, outcome, self.sim.now - started, fell_back)
        if handoff is not None:
            handoff.on_chunk_boundary()
        return outcome

    # -- bookkeeping ----------------------------------------------------------------

    def _account(
        self,
        record,
        outcome: FetchOutcome,
        latency: float,
        fell_back: bool = False,
    ) -> None:
        origin_hid = record.raw_dag.fallback_hid
        from_edge = (
            outcome.served_by_hid is not None
            and outcome.served_by_hid != origin_hid
        )
        self.profile.observe_fetch(record, latency, from_edge=from_edge)
        if from_edge:
            self.chunks_from_edge += 1
        else:
            self.chunks_from_origin += 1
            if record.staging_state is StagingState.BLANK:
                # Fetched directly (no VNF available): never stage it.
                record.staging_state = StagingState.DONE
        probe = self.sim.probe
        if probe.active:
            probe.emit(
                ChunkFetched(
                    cid=record.cid.short,
                    latency=latency,
                    from_edge=from_edge,
                    fallback=fell_back,
                )
            )
        if self.chunk_delivered is not None:
            self.chunk_delivered(record.cid)

    def __repr__(self) -> str:
        return (
            f"<ChunkManager edge={self.chunks_from_edge} "
            f"origin={self.chunks_from_origin} fallbacks={self.fallbacks}>"
        )
