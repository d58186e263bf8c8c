"""Vehicular mobility and connectivity models.

The paper's evaluation is driven entirely by *when the client can talk
to which access point and how well*.  This package provides:

- :mod:`repro.mobility.coverage` — coverage timelines: per-AP windows
  of visibility with RSS, plus builders for the paper's scenarios
  (alternating encounters, overlapping coverage);
- :mod:`repro.mobility.association` — the client's layer-2/3
  association state machine over the packet-level network;
- :mod:`repro.mobility.scanner` — the scanning loop feeding handoff
  policies (the SoftStage Network Sensor subscribes to it);
- :mod:`repro.mobility.wardriving` — synthesized Beijing wardriving
  traces matching Fig. 7(a)'s connectivity patterns;
- :mod:`repro.mobility.traces` — on-disk trace I/O.
"""

from repro.mobility.coverage import (
    Coverage,
    CoverageWindow,
    alternating_coverage,
    overlapping_coverage,
)
from repro.mobility.association import AccessPointInfo, Association, AssociationController
from repro.mobility.scanner import Scanner, VisibleNetwork
from repro.mobility.traces import ConnectivityTrace
from repro.mobility.wardriving import WardrivingSynthesizer

__all__ = [
    "AccessPointInfo",
    "Association",
    "AssociationController",
    "ConnectivityTrace",
    "Coverage",
    "CoverageWindow",
    "Scanner",
    "VisibleNetwork",
    "WardrivingSynthesizer",
    "alternating_coverage",
    "overlapping_coverage",
]
