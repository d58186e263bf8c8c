"""Comparison baselines.

- Xftp (no staging) lives in :mod:`repro.apps.ftp` — it is the paper's
  primary baseline and shares the application layer;
- :mod:`repro.baselines.predictive` — an EdgeBuffer-style *predictive*
  staging policy for the SoftStage client: content is pre-staged into
  the network the predictor expects the client to visit next.  The
  paper's §III-B argument is that prediction accuracy is fragile; the
  reactive-vs-predictive ablation bench quantifies it;
- :mod:`repro.baselines.endtoend` — a host-based byte-stream download
  (no chunks at all), the pre-ICN way: the Xftp client over a stream
  transport.
"""

from repro.baselines.predictive import MobilityPredictor, PredictiveStagingPolicy
from repro.baselines.endtoend import EndToEndClient

__all__ = [
    "EndToEndClient",
    "MobilityPredictor",
    "PredictiveStagingPolicy",
]
