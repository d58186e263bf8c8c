"""The Chunk Profile: the Staging Manager's state database (Table I).

One :class:`ChunkRecord` per registered chunk, indexed by CID, holding
the raw (origin) DAG, the new (staged) DAG, fetch/staging states, the
staged location, and the three latency estimates the staging algorithm
consumes: ``RTT_C,EdgeNet``, ``L_EdgeNet->C`` and ``L_S->EdgeNet``.
Per-chunk observations also feed EWMA estimators so the coordinator
sees smoothed network conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.states import FetchState, StagingState
from repro.errors import ConfigurationError
from repro.util.validation import check_fraction
from repro.xia.dag import DagAddress
from repro.xia.ids import XID


class EwmaEstimator:
    """Exponentially weighted moving average with a defined empty state."""

    def __init__(self, alpha: float = 0.25) -> None:
        check_fraction("alpha", alpha)
        self.alpha = alpha
        self._value: Optional[float] = None
        self.samples = 0

    def observe(self, sample: float) -> None:
        self.samples += 1
        if self._value is None:
            self._value = sample
        else:
            self._value = (1 - self.alpha) * self._value + self.alpha * sample

    @property
    def value(self) -> Optional[float]:
        return self._value

    def value_or(self, default: float) -> float:
        return self._value if self._value is not None else default

    def __repr__(self) -> str:
        return f"<EWMA {self._value} n={self.samples}>"


@dataclass
class ChunkRecord:
    """Table I, one row."""

    cid: XID
    index: int
    size_bytes: int
    #: Dest. address with the origin server's NID:HID fallback.
    raw_dag: DagAddress
    #: Dest. address with the staging edge network's NID:HID fallback.
    new_dag: Optional[DagAddress] = None
    fetch_state: FetchState = FetchState.BLANK
    staging_state: StagingState = StagingState.BLANK
    #: (NID, HID) of the edge cache holding the staged chunk.
    location: Optional[tuple[XID, XID]] = None
    #: Round-trip time between client and that edge network, seconds.
    fetch_rtt: Optional[float] = None
    #: Time to fetch one staged chunk from the edge to the client.
    fetch_latency: Optional[float] = None
    #: Time to stage one chunk from the origin into the edge.
    staging_latency: Optional[float] = None
    #: Bookkeeping for re-signalling lost staging requests.
    staging_requested_at: Optional[float] = None

    @property
    def best_dag(self) -> DagAddress:
        """The address ``XfetchChunk*`` should use right now."""
        if self.staging_state is StagingState.READY and self.new_dag is not None:
            return self.new_dag
        return self.raw_dag

    def mark_staged(
        self,
        new_dag: DagAddress,
        nid: XID,
        hid: XID,
        staging_latency: Optional[float],
        fetch_rtt: Optional[float],
    ) -> None:
        self.new_dag = new_dag
        self.location = (nid, hid)
        self.staging_state = StagingState.READY
        if staging_latency is not None:
            self.staging_latency = staging_latency
        if fetch_rtt is not None:
            self.fetch_rtt = fetch_rtt


class ChunkProfile:
    """All chunk records for one content download session."""

    #: EWMA smoothing of the Table I latency estimates.
    ewma_alpha = 0.25

    def __init__(self) -> None:
        self._records: dict[XID, ChunkRecord] = {}
        self._order: list[XID] = []
        #: Smoothed network-condition estimates feeding Eq. 1.
        self.rtt_to_edge = EwmaEstimator(self.ewma_alpha)
        self.edge_fetch_latency = EwmaEstimator(self.ewma_alpha)
        self.staging_latency = EwmaEstimator(self.ewma_alpha)
        self.origin_fetch_latency = EwmaEstimator(self.ewma_alpha)

    # -- registration (step 3 in Fig. 2) ----------------------------------

    def register(self, cid: XID, index: int, size_bytes: int, raw_dag: DagAddress) -> ChunkRecord:
        if cid in self._records:
            raise ConfigurationError(f"chunk {cid.short} already registered")
        record = ChunkRecord(cid=cid, index=index, size_bytes=size_bytes, raw_dag=raw_dag)
        self._records[cid] = record
        self._order.append(cid)
        return record

    def register_content(self, content) -> list[ChunkRecord]:
        """Register every chunk of a PublishedContent manifest."""
        return [
            self.register(chunk.cid, chunk.index, chunk.size_bytes, address)
            for chunk, address in zip(content.chunks, content.addresses)
        ]

    # -- access ------------------------------------------------------------

    def __contains__(self, cid: XID) -> bool:
        return cid in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, cid: XID) -> ChunkRecord:
        try:
            return self._records[cid]
        except KeyError:
            raise KeyError(f"chunk {cid.short} not registered") from None

    def records(self) -> Iterable[ChunkRecord]:
        return (self._records[cid] for cid in self._order)

    # -- queries used by the staging algorithm --------------------------------

    def staged_ahead(self) -> int:
        """N in Eq. 1: chunks staged (READY) but not yet fetched."""
        return sum(
            1
            for record in self._records.values()
            if record.fetch_state is not FetchState.DONE
            and record.staging_state is StagingState.READY
        )

    def pending_staging(self) -> int:
        return sum(
            1
            for record in self._records.values()
            if record.staging_state is StagingState.PENDING
        )

    def staged_ahead_bytes(self) -> int:
        """The Eq. 1 staging *lead* in bytes: READY but not yet fetched.

        This is the quantity the coordinator keeps just-in-time — the
        flight recorder samples it as ``staging.lead_bytes``.
        """
        return sum(
            record.size_bytes
            for record in self._records.values()
            if record.fetch_state is not FetchState.DONE
            and record.staging_state is StagingState.READY
        )

    def fetched_bytes(self) -> int:
        """Client progress in bytes (flight-recorder gauge)."""
        return sum(
            record.size_bytes
            for record in self._records.values()
            if record.fetch_state is FetchState.DONE
        )

    def next_to_stage(self, count: int) -> list[ChunkRecord]:
        """The next ``count`` un-signalled, un-fetched chunks in order."""
        result: list[ChunkRecord] = []
        if count <= 0:
            return result
        for cid in self._order:
            record = self._records[cid]
            if (
                record.fetch_state is not FetchState.DONE
                and record.staging_state is StagingState.BLANK
            ):
                result.append(record)
                if len(result) >= count:
                    break
        return result

    def stale_pending(self, now: float, timeout: float) -> list[ChunkRecord]:
        """PENDING entries whose confirmation is overdue (lost signal)."""
        return [
            record
            for record in self._records.values()
            if record.staging_state is StagingState.PENDING
            and record.staging_requested_at is not None
            and now - record.staging_requested_at >= timeout
        ]

    def all_fetched(self) -> bool:
        return all(
            record.fetch_state is FetchState.DONE
            for record in self._records.values()
        )

    # -- observations ------------------------------------------------------------

    def observe_fetch(self, record: ChunkRecord, latency: float, from_edge: bool) -> None:
        record.fetch_state = FetchState.DONE
        record.fetch_latency = latency
        if from_edge:
            self.edge_fetch_latency.observe(latency)
        else:
            self.origin_fetch_latency.observe(latency)

    def observe_staging(self, latency: Optional[float], rtt: Optional[float]) -> None:
        if latency is not None:
            self.staging_latency.observe(latency)
        if rtt is not None:
            self.rtt_to_edge.observe(rtt)

    def __repr__(self) -> str:
        done = sum(
            1 for r in self._records.values() if r.fetch_state is FetchState.DONE
        )
        return f"<ChunkProfile {done}/{len(self._records)} fetched, staged_ahead={self.staged_ahead()}>"
