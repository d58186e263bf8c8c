"""XChunkP: downloading content as a sequence of chunk transfers.

Each chunk is requested, transferred and CID-verified independently —
"the XChunkP transfer is broken up in chunks that are fetched
separately and this comes with larger protocol overhead" (paper
§IV-B).  This is the static (no-mobility) chunk downloader used by the
Fig. 5 benchmark; the mobile Xftp application in :mod:`repro.apps.ftp`
adds connectivity awareness on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Simulator
from repro.transport.chunkfetch import ChunkFetcher, FetchOutcome
from repro.transport.config import TransportConfig
from repro.transport.reliable import TransportEndpoint
from repro.xcache.publisher import PublishedContent


@dataclass
class ChunkedDownloadResult:
    """Outcome of a whole-content chunked download."""

    bytes_received: int
    duration: float

    @property
    def throughput_bps(self) -> float:
        return self.bytes_received * 8 / self.duration if self.duration else 0.0


class XChunkPClient:
    """Sequentially fetches every chunk of a published content."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: TransportEndpoint,
        config: TransportConfig,
    ) -> None:
        self.sim = sim
        self.fetcher = ChunkFetcher(sim, endpoint, config=config)

    def download(self, content: PublishedContent):
        """Process: fetch all chunks in order; returns the result."""
        started = self.sim.now
        total = 0
        for address in content.addresses:
            outcome: FetchOutcome = yield self.sim.process(
                self.fetcher.fetch(address)
            )
            total += outcome.bytes_received
        return ChunkedDownloadResult(
            bytes_received=total,
            duration=self.sim.now - started,
        )
