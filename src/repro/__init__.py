"""SoftStage reproduction: reactive content staging for vehicular content
delivery in the eXpressive Internet Architecture (XIA).

This package reimplements, on a from-scratch discrete-event simulator,
the full system described in *SoftStage: Content Staging for Vehicular
Content Delivery in the eXpressive Internet Architecture* (ICDCS 2019):
the XIA addressing/forwarding substrate, the XCache chunk cache, the
TCP-like chunk transports, the vehicular mobility/connectivity models,
and — as the core contribution — the client-side Staging Manager with
its reactive "Just-in-Time" staging algorithm, the edge-network Staging
VNF, and the chunk-aware handoff policy.

The most convenient entry points:

- :class:`repro.experiments.scenario.TestbedScenario` builds the paper's
  evaluation topology (Fig. 4) in one call,
- :class:`repro.core.client.SoftStageClient` and
  :class:`repro.apps.ftp.XftpClient` are the system under test and the
  baseline,
- :mod:`repro.experiments` contains one driver per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
