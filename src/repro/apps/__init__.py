"""Applications: the workloads that run over the substrate.

- :mod:`repro.apps.server` — the origin content server (publish +
  serve);
- :mod:`repro.apps.ftp` — the Xftp baseline: an FTP-style chunked
  downloader with standard RSS-greedy mobility handling but *no*
  staging (what SoftStage is compared against throughout §IV).
"""

from repro.apps.ftp import XftpClient
from repro.apps.server import ContentServer

__all__ = [
    "ContentServer",
    "XftpClient",
]
