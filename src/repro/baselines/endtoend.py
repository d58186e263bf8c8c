"""Host-based end-to-end download (the pre-ICN baseline).

One long byte-stream session from the origin server, no chunking, no
caching — what a classic TCP file download looks like under vehicular
connectivity.  It survives moves only through whole-session migration
and gives the ablation benches a floor to compare against.
"""

from __future__ import annotations

from repro.apps.ftp import XftpClient


class EndToEndClient(XftpClient):
    """Single byte-stream download from the origin.

    The Xftp fetch rule over a stream transport; the content must be
    published as a single chunk (``chunk_size == total_bytes``).
    """

    stream = True
