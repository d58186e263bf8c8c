"""Transports: the TCP-like reliable protocols XIA runs over.

XIA byte streams (Xstream) and chunk transfers (XChunkP) "use the same
underlying TCP-like transport protocol" (paper §IV-B).  This package
implements that transport once, at packet level, in
:mod:`repro.transport.reliable` (congestion window, slow start/AIMD,
fast retransmit, RTO backoff, session migration over :mod:`repro.net`).

:mod:`repro.transport.config` holds the protocol presets whose
constants are calibrated against the paper's Fig. 5 benchmark (kernel
TCP vs the user-level XIA daemon), and :mod:`repro.transport.chunkfetch`
implements the CID request/serve protocol between clients and caches.
"""

from repro.transport.config import (
    KERNEL_TCP,
    XIA_CHUNK,
    XIA_STREAM,
    TransportConfig,
)
from repro.transport.reliable import TransportEndpoint
from repro.transport.chunkfetch import CacheDaemon, ChunkFetcher, FetchOutcome

__all__ = [
    "CacheDaemon",
    "ChunkFetcher",
    "FetchOutcome",
    "KERNEL_TCP",
    "TransportConfig",
    "TransportEndpoint",
    "XIA_CHUNK",
    "XIA_STREAM",
]
