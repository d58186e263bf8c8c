"""SoftStage: the paper's core contribution.

A client-directed, network-layer content staging function.  The
control plane lives on the client as the **Staging Manager** —
decomposed, exactly as in the paper's Fig. 3, into

- :class:`~repro.core.profile.ChunkProfile` (Table I state),
- :class:`~repro.core.chunk_manager.ChunkManager` (the
  ``XfetchChunk*`` delegation API),
- :class:`~repro.core.network_sensor.NetworkSensor` (second-radio
  scanning + VNF discovery),
- :class:`~repro.core.handoff.HandoffManager` (default-RSS and
  chunk-aware policies),
- :class:`~repro.core.coordinator.StagingCoordinator` (the reactive
  "Just-in-Time" staging algorithm, Eq. 1),
- :class:`~repro.core.tracker.StagingTracker` (signalling to the VNF)

— while the data plane's **Staging VNF**
(:class:`~repro.core.vnf.StagingVNF`) is a stateless service embedded
in the edge network's XCache.  :class:`~repro.core.client.SoftStageClient`
assembles the whole thing behind a one-call download API, on the
:class:`~repro.core.client.MobileClient` chassis the baselines share.
"""

from repro.core.states import FetchState, StagingState
from repro.core.profile import ChunkProfile, ChunkRecord
from repro.core.policy import (
    ActionKind,
    MobilityAwarePolicy,
    ReactiveEq1Policy,
    RichPrefetchPolicy,
    StagingAction,
    StagingObservation,
    StagingPolicy,
    available_policies,
    make_policy,
)
from repro.core.coordinator import StagingCoordinator
from repro.core.tracker import StagingTracker
from repro.core.network_sensor import NetworkSensor
from repro.core.handoff import ChunkAwarePolicy, HandoffManager, RssGreedyPolicy
from repro.core.chunk_manager import ChunkManager
from repro.core.manager import StagingManager
from repro.core.vnf import StagingVNF, vnf_address
from repro.core.client import MobileClient, SoftStageClient

__all__ = [
    "ActionKind",
    "ChunkAwarePolicy",
    "ChunkManager",
    "ChunkProfile",
    "ChunkRecord",
    "FetchState",
    "HandoffManager",
    "MobileClient",
    "MobilityAwarePolicy",
    "NetworkSensor",
    "ReactiveEq1Policy",
    "RichPrefetchPolicy",
    "RssGreedyPolicy",
    "SoftStageClient",
    "StagingAction",
    "StagingCoordinator",
    "StagingManager",
    "StagingObservation",
    "StagingPolicy",
    "StagingTracker",
    "StagingVNF",
    "available_policies",
    "make_policy",
    "vnf_address",
]
