"""Xftp: the FTP-style baseline application (no staging).

Downloads a stream of chunks straight from the origin server using
XIA's standard ``XfetchChunk``.  Mobility is handled the way a stock
client would: associate with the strongest audible network
(RSS-greedy), migrate active transport sessions after each move, and
simply wait out coverage gaps.  Everything SoftStage adds — edge
staging, chunk-aware handoff, VNF discovery — is absent; this is the
comparison baseline used across the paper's Fig. 6 and Fig. 7.
"""

from __future__ import annotations

from repro.core.client import MobileClient
from repro.xia.dag import DagAddress
from repro.xia.ids import XID


class XftpClient(MobileClient):
    """Baseline chunked downloader over vanilla XIA."""

    def fetch_chunk(self, cid: XID, address: DagAddress):
        return self.fetcher.fetch(address)
