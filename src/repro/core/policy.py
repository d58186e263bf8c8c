"""The pluggable StagingPolicy framework.

The paper's reactive Eq. 1 algorithm is one answer to the question
"which chunks should be staged where, right now?".  This module turns
that question into a protocol so competitors can be expressed without
forking the staging stack:

- a :class:`StagingObservation` is a read-only snapshot of the client's
  world, built by the :class:`~repro.core.coordinator.StagingCoordinator`
  from the same state the flight recorder samples (staged-ahead chunks,
  staging lead bytes, client progress, link queues, connectivity and
  the Table I latency estimators);
- a policy's :meth:`StagingPolicy.decide` maps an observation to a list
  of :class:`StagingAction` requests (stage / re-signal / cancel),
  which the coordinator executes against the Staging Tracker and the
  edge VNFs;
- lifecycle hooks (:meth:`StagingPolicy.on_attach` /
  :meth:`~StagingPolicy.on_detach` /
  :meth:`~StagingPolicy.on_chunk_delivered`) let event-driven policies
  act between polls.

Shipped policies:

- :class:`ReactiveEq1Policy` — the paper's Just-in-Time algorithm,
  bit-identical to the pre-framework coordinator;
- :class:`RichPrefetchPolicy` — a RICH-style in-order prefetch window
  of W chunks, refilled as chunks are consumed and pre-staged whole
  into the predicted next AP on chunk-aware handoffs;
- :class:`MobilityAwarePolicy` — placement-probability staging that
  splits the Eq. 1 budget between the current network and the
  round-robin next one, weighted by predicted dwell time and handoff
  likelihood (both observed by :mod:`repro.mobility` estimators);
- ``"predictive"`` — the EdgeBuffer-style baseline from
  :mod:`repro.baselines.predictive`, ported onto this protocol.

This observation/action surface is deliberately RL-shaped: an
environment can present :class:`StagingObservation` as its observation
space and :class:`StagingAction` as its action space without another
refactor.
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.scenario import TestbedScenario
    from repro.xia.ids import XID


# ---------------------------------------------------------------------------
# Observation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagingObservation:
    """One read-only snapshot of the staging world.

    Built by the coordinator from pure state reads — constructing an
    observation never perturbs the simulation, so fixed-seed runs are
    identical whether zero or many policies look at it.  The fields
    mirror the flight-recorder gauge set plus what Eq. 1 needs.
    """

    #: Simulated time of the snapshot.
    now: float
    #: Whether the client is currently associated to an AP.
    connected: bool
    #: Name of the current network (None while offline).
    current_network: Optional[str]
    #: Seconds since the current association began (0.0 offline).
    time_in_network: float
    #: Whether the current network advertises a staging VNF.
    vnf_available: bool
    #: Every network the client knows about, in stable (join) order.
    known_networks: tuple[str, ...]
    #: The subset of ``known_networks`` that advertises a staging VNF.
    networks_with_vnf: frozenset[str]
    #: Latest scan results as ``(name, rss_dbm)``, strongest first.
    visible_networks: tuple[tuple[str, float], ...]

    # -- staging pipeline gauges (flight-recorder names in comments) --
    #: Registered chunks in this download session.
    total_chunks: int
    #: Chunks fully fetched by the client.
    fetched_chunks: int
    #: READY-but-unfetched chunks (``staging.staged_ahead_chunks``).
    staged_ahead: int
    #: Signalled-but-unconfirmed chunks (``staging.pending_chunks``).
    pending_staging: int
    #: Unfetched chunks never signalled anywhere (BLANK).
    unsignalled_chunks: int
    #: Staging lead in bytes (``staging.lead_bytes``).
    lead_bytes: int
    #: Client progress in bytes (``client.progress_bytes``).
    progress_bytes: int
    #: Bytes queued on the client's access links
    #: (sum of ``link.queue_bytes.*`` over the client's ports).
    link_queue_bytes: int

    # -- Table I estimators (None until the first sample) --
    rtt_to_edge: Optional[float]
    staging_latency: Optional[float]
    edge_fetch_latency: Optional[float]
    #: How many staging-latency samples exist (Eq. 1 falls back to the
    #: initial burst while this is zero).
    staging_latency_samples: int

    # -- reactive mobility statistics (EWMAs over observed events) --
    #: Observed disconnection-gap duration (None before the first gap).
    observed_gap: Optional[float]
    #: Observed encounter duration (None before the first encounter end).
    observed_encounter: Optional[float]

    #: PENDING chunks whose confirmation is overdue, in profile order.
    stale_cids: tuple["XID", ...] = ()
    #: All currently PENDING chunks.
    in_flight_cids: frozenset = frozenset()

    @property
    def remaining_chunks(self) -> int:
        return self.total_chunks - self.fetched_chunks

    @property
    def outstanding(self) -> int:
        """Chunks signalled ahead (READY or PENDING, unfetched)."""
        return self.staged_ahead + self.pending_staging

    def next_network(self) -> Optional[str]:
        """The round-robin successor of the current network.

        The Fig. 6 coverage pattern visits APs cyclically, which is
        also what the EdgeBuffer-style predictor assumes — policies
        that want real prediction should use
        :class:`repro.baselines.predictive.MobilityPredictor`.
        """
        names = self.known_networks
        if not names:
            return None
        if self.current_network not in names:
            return names[0]
        index = names.index(self.current_network)
        return names[(index + 1) % len(names)]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


class ActionKind(enum.Enum):
    """What a :class:`StagingAction` asks the executor to do."""

    #: Signal the next ``count`` in-order unsignalled chunks to the
    #: target network's VNF.
    STAGE = "stage"
    #: Re-send staging signals for still-PENDING chunks (lost replies).
    RESIGNAL = "resignal"
    #: Forget PENDING requests (state back to BLANK, no packets sent).
    CANCEL = "cancel"


@dataclass(frozen=True)
class StagingAction:
    """One request from a policy to the staging executor.

    ``target`` names a network (``None`` = the current one); the
    executor resolves it to that network's staging-VNF DAG and drops
    the action silently when the network has no VNF — the same
    fault-tolerance a policy-free coordinator has.
    """

    kind: ActionKind
    #: STAGE: how many next-in-order chunks to signal.
    count: int = 0
    #: Network name the action applies to (None = current network).
    target: Optional[str] = None
    #: Chunk CIDs for RESIGNAL / CANCEL.
    cids: tuple = ()
    #: Label stamped on the staging signal (shows up in traces).
    label: str = ""

    # -- constructors ------------------------------------------------------

    @classmethod
    def stage(
        cls, count: int, target: Optional[str] = None, label: str = "stage"
    ) -> "StagingAction":
        return cls(ActionKind.STAGE, count=count, target=target, label=label)

    @classmethod
    def resignal(cls, cids: Iterable) -> "StagingAction":
        return cls(ActionKind.RESIGNAL, cids=tuple(cids), label="re-signal")

    @classmethod
    def cancel(cls, cids: Iterable) -> "StagingAction":
        return cls(ActionKind.CANCEL, cids=tuple(cids))


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------


class StagingPolicy(abc.ABC):
    """Decides which chunks are staged where.

    Stateless policies only implement :meth:`decide`; event-driven ones
    also override the lifecycle hooks, each of which may return more
    actions to execute immediately (the hooks of the default policy
    return nothing, so attaching them costs a fixed-seed run nothing).
    """

    #: Registry name (CLI ``--policy`` value, RunRecord field).
    name: str = "policy"

    @abc.abstractmethod
    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        """Actions for one coordination round."""

    # -- lifecycle hooks ---------------------------------------------------

    def on_attach(
        self, obs: StagingObservation, network: str
    ) -> list[StagingAction]:
        """Called when the client associates to ``network``."""
        return []

    def on_detach(
        self, obs: StagingObservation, network: str
    ) -> list[StagingAction]:
        """Called when the client loses ``network``."""
        return []

    def on_chunk_delivered(
        self, obs: StagingObservation, cid: "XID"
    ) -> list[StagingAction]:
        """Called after each chunk reaches the client."""
        return []

    # -- chunk-aware handoff support --------------------------------------

    def prestage_count(self, obs: StagingObservation) -> int:
        """Chunks to pre-stage into an announced handoff target."""
        return 2

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------------
# The paper's policy (Eq. 1)
# ---------------------------------------------------------------------------


class ReactiveEq1Policy(StagingPolicy):
    """The paper's reactive Just-in-Time algorithm, Eq. 1.

    Keeps the staged-ahead count N at the break-even point where
    draining the staged buffer takes exactly as long as staging one
    more chunk::

        stage immediately while   N < (RTT_C,Edge + L_S->Edge) / L_Edge->C

    plus a *gap allowance* — enough extra chunks that the staging
    pipeline keeps running through a coverage gap of the length the
    client has actually observed (EWMA, reactive adaptation — never
    mobility prediction).  This is the pre-framework coordinator's
    exact decision sequence: fixed-seed runs are bit-identical.
    """

    name = "reactive"
    #: Chunks to stage before any latency estimates exist ("initial
    #: chunks are retrieved directly from the server, while the client
    #: contacts the edge VNF to stage future chunks", §III-A).
    initial_stage_count = 2
    #: Upper bound on chunks staged ahead (edge cache budget); Eq. 1
    #: decides *when*, this bounds *how far*.
    max_stage_ahead = 64
    #: Working assumption for the next coverage gap's length before any
    #: gap has been observed, seconds; once real gaps are observed their
    #: EWMA replaces it (reactive adaptation — no mobility prediction).
    initial_gap_estimate = 16.0
    #: Eq. 1's inputs before Table I holds any estimate, seconds.
    default_staging_latency = 1.0
    default_fetch_latency = 1.0
    default_rtt = 0.02

    # -- the staging algorithm ---------------------------------------------

    def eq1_threshold(self, obs: StagingObservation) -> float:
        """The paper's Eq. 1 right-hand side from current estimates."""
        rtt = obs.rtt_to_edge if obs.rtt_to_edge is not None else self.default_rtt
        stage_latency = (
            obs.staging_latency
            if obs.staging_latency is not None
            else self.default_staging_latency
        )
        fetch_latency = (
            obs.edge_fetch_latency
            if obs.edge_fetch_latency is not None
            else self.default_fetch_latency
        )
        return (rtt + stage_latency) / max(fetch_latency, 1e-6)

    def gap_allowance(self, obs: StagingObservation) -> int:
        """Extra chunks signalled so staging survives a coverage gap."""
        gap = (
            obs.observed_gap
            if obs.observed_gap is not None
            else self.initial_gap_estimate
        )
        stage_latency = (
            obs.staging_latency
            if obs.staging_latency is not None
            else self.default_staging_latency
        )
        return math.ceil(gap / max(stage_latency, 1e-3))

    def target_signalled(self, obs: StagingObservation) -> int:
        """How many unfetched chunks should be READY or PENDING."""
        if obs.staging_latency_samples == 0:
            # Nothing confirmed yet: open with the initial burst.
            base = self.initial_stage_count
        else:
            base = math.ceil(self.eq1_threshold(obs))
        return min(base + self.gap_allowance(obs), self.max_stage_ahead)

    # -- protocol ----------------------------------------------------------

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        actions: list[StagingAction] = []
        # Re-signal staging requests whose confirmations never arrived
        # (lost on the wireless segment or sent while we were away).
        if obs.stale_cids:
            actions.append(StagingAction.resignal(obs.stale_cids))
        deficit = self.target_signalled(obs) - obs.outstanding
        if deficit > 0:
            actions.append(StagingAction.stage(deficit, label="eq1"))
        return actions

    def prestage_count(self, obs: StagingObservation) -> int:
        return max(
            math.ceil(self.eq1_threshold(obs)),
            self.initial_stage_count,
        )


# ---------------------------------------------------------------------------
# Competitors
# ---------------------------------------------------------------------------


class RichPrefetchPolicy(StagingPolicy):
    """RICH-style in-order prefetch window (PAPERS.md: *The RICH
    Prefetching in Edge Caches*).

    The edge cache serving the client always holds the next ``window``
    chunks of the object, in order, never skipping ahead: the window is
    refilled whenever a chunk is delivered and rebuilt at the new edge
    on every attach.  On a chunk-aware handoff the whole window is
    pre-staged into the predicted next AP (the handoff target), which
    is RICH's "prefetch where the consumer goes next" behaviour riding
    the existing prestage path.  Unlike Eq. 1 the window never adapts
    to network conditions — that contrast is the point.
    """

    name = "rich"
    #: Chunks the serving edge holds ahead of the client.
    window = 8

    def _refill(self, obs: StagingObservation) -> list[StagingAction]:
        actions: list[StagingAction] = []
        if obs.stale_cids:
            actions.append(StagingAction.resignal(obs.stale_cids))
        deficit = min(
            self.window - obs.outstanding,
            obs.remaining_chunks - obs.outstanding,
        )
        if deficit > 0:
            actions.append(StagingAction.stage(deficit, label="rich"))
        return actions

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        return self._refill(obs)

    def on_attach(
        self, obs: StagingObservation, network: str
    ) -> list[StagingAction]:
        # Rebuild the window at the new edge immediately instead of
        # waiting for the next poll.
        return self._refill(obs)

    def on_chunk_delivered(
        self, obs: StagingObservation, cid: "XID"
    ) -> list[StagingAction]:
        # In-order advance: one consumed, one more enters the window.
        return self._refill(obs)

    def prestage_count(self, obs: StagingObservation) -> int:
        return self.window


class MobilityAwarePolicy(StagingPolicy):
    """Placement-probability staging (PAPERS.md: *A Mobility-Aware
    Vehicular Caching Scheme in Content Centric Networks*).

    Splits the Eq. 1 staging budget between the current network and the
    round-robin next one according to a placement probability: the
    longer the client has dwelled relative to the expected encounter
    duration (the :mod:`repro.mobility` EWMA the Network Sensor
    maintains), the likelier an imminent handoff, and the larger the
    share of new chunks placed at the next AP ahead of the move.
    """

    name = "mobility"

    def __init__(self) -> None:
        # Reuse the paper's break-even budget; only *placement* differs.
        self._budget = ReactiveEq1Policy()

    def handoff_likelihood(self, obs: StagingObservation) -> float:
        """P(handoff before the next coordination round), crudely: the
        fraction of the expected dwell already used up."""
        if not obs.connected:
            return 1.0
        expected = (
            obs.observed_encounter
            if obs.observed_encounter is not None
            else self._budget.initial_gap_estimate
        )
        if expected <= 0:
            return 1.0
        return min(obs.time_in_network / expected, 1.0)

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        actions: list[StagingAction] = []
        if obs.stale_cids:
            actions.append(StagingAction.resignal(obs.stale_cids))
        deficit = self._budget.target_signalled(obs) - obs.outstanding
        if deficit <= 0:
            return actions
        likelihood = self.handoff_likelihood(obs)
        next_ap = obs.next_network()
        place_next = 0
        if next_ap is not None and next_ap in obs.networks_with_vnf:
            place_next = int(round(deficit * likelihood))
        place_here = deficit - place_next
        # In-order split: the executor consumes unsignalled chunks in
        # order, so the near chunks land here and the far ones ahead.
        if place_here > 0:
            actions.append(
                StagingAction.stage(place_here, label="mobility:stay")
            )
        if place_next > 0:
            actions.append(
                StagingAction.stage(
                    place_next, target=next_ap, label=f"mobility:{next_ap}"
                )
            )
        return actions

    def on_detach(
        self, obs: StagingObservation, network: str
    ) -> list[StagingAction]:
        # Entering a gap: anything still PENDING toward the lost
        # network would wait out the signal timeout; keep the pipeline
        # description accurate by cancelling so the next attach
        # re-places those chunks by the fresh probabilities.
        if obs.stale_cids:
            return [StagingAction.cancel(obs.stale_cids)]
        return []

    def prestage_count(self, obs: StagingObservation) -> int:
        return self._budget.prestage_count(obs)


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------


def _make_reactive(scenario):
    return ReactiveEq1Policy()


def _make_rich(scenario):
    return RichPrefetchPolicy()


def _make_mobility(scenario):
    return MobilityAwarePolicy()


def _make_predictive(scenario):
    from repro.baselines.predictive import PredictiveStagingPolicy

    if scenario is None:
        raise ConfigurationError(
            "the 'predictive' policy needs a scenario (its mobility "
            "predictor is built from the scenario's AP list and RNG); "
            "construct PredictiveStagingPolicy directly instead"
        )
    return PredictiveStagingPolicy.for_scenario(scenario)


#: name -> factory(scenario).  Factories may ignore the argument;
#: ``scenario`` is None outside a testbed context.
POLICIES = {
    "reactive": _make_reactive,
    "rich": _make_rich,
    "mobility": _make_mobility,
    "predictive": _make_predictive,
}


def available_policies() -> tuple[str, ...]:
    return tuple(POLICIES)


def make_policy(
    name: str,
    scenario: Optional["TestbedScenario"] = None,
) -> StagingPolicy:
    """Build a shipped policy by registry name.

    Raises :class:`~repro.errors.ConfigurationError` naming every
    available policy when ``name`` is unknown.
    """
    factory = POLICIES.get(name)
    if factory is None:
        options = ", ".join(sorted(POLICIES))
        raise ConfigurationError(
            f"unknown staging policy {name!r} (available: {options})"
        )
    return factory(scenario)


def policy_name(policy) -> str:
    """The registry/record name of a policy instance (or name string)."""
    if policy is None:
        return ""
    if isinstance(policy, str):
        return policy
    return getattr(policy, "name", type(policy).__name__)
