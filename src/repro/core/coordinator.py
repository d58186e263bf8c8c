"""The Staging Coordinator: observation builder + policy driver.

Historically this class *was* the reactive "Just-in-Time" algorithm
(the paper's Eq. 1).  That algorithm now lives in
:class:`~repro.core.policy.ReactiveEq1Policy`; the coordinator's job is
the mechanical half of every staging strategy:

- build a :class:`~repro.core.policy.StagingObservation` from the
  Chunk Profile, the Network Sensor and the client host (the same
  state the flight recorder samples);
- ask the configured :class:`~repro.core.policy.StagingPolicy` to
  :meth:`~repro.core.policy.StagingPolicy.decide` once per poll, and
  relay attach / detach / chunk-delivered events to the policy's
  lifecycle hooks;
- execute the returned :class:`~repro.core.policy.StagingAction`
  requests against the Staging Tracker (stage / re-signal / cancel),
  resolving network names to staging-VNF DAGs and dropping actions
  aimed at networks without one — the same fault-tolerance path a
  policy-free client has.

With the default policy the decision sequence, signal labels and
packet timeline are bit-identical to the pre-framework coordinator:
fixed-seed runs reproduce exactly.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.network_sensor import NetworkSensor
from repro.core.policy import (
    ActionKind,
    ReactiveEq1Policy,
    StagingAction,
    StagingObservation,
    StagingPolicy,
)
from repro.core.profile import ChunkProfile
from repro.core.states import FetchState, StagingState
from repro.core.tracker import StagingTracker
from repro.core.vnf import vnf_address
from repro.sim import Simulator
from repro.xia.dag import DagAddress

if TYPE_CHECKING:  # pragma: no cover
    from repro.xia.ids import XID


class StagingCoordinator:
    """Polls the profile and drives a StagingPolicy's decisions."""

    #: How often the policy is asked to decide, seconds.
    poll_interval = 0.25
    #: Re-send a staging signal unconfirmed for this long, seconds
    #: (control packets can die on the wireless segment).
    staging_signal_timeout = 3.0

    def __init__(
        self,
        sim: Simulator,
        profile: ChunkProfile,
        tracker: StagingTracker,
        sensor: NetworkSensor,
        policy: Optional[StagingPolicy] = None,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.tracker = tracker
        self.sensor = sensor
        self.policy = policy or ReactiveEq1Policy()
        self.ticks = 0
        #: Decisions taken, by a poll (:meth:`tick`) or by a lifecycle
        #: hook alike.
        self.decisions = 0
        self._running = False
        # Relay association events to the policy's lifecycle hooks.
        # Policies whose hooks return nothing cost the run nothing.
        sensor.controller.on_attach(self._on_attach)
        sensor.controller.on_detach(self._on_detach)

    # -- observation building -------------------------------------------------

    def observe(self) -> StagingObservation:
        """Snapshot the staging world for one policy decision.

        Pure state reads — building an observation never perturbs the
        simulation, so fixed-seed runs are identical no matter how
        often (or from which policy) this is called.
        """
        profile = self.profile
        now = self.sim.now

        controller = self.sensor.controller
        current = controller.current
        if current is not None:
            current_network = current.ap.name
            time_in_network = now - current.since
        else:
            current_network = None
            time_in_network = 0.0

        infos = controller.access_points
        with_vnf = frozenset(
            name for name, info in infos.items()
            if vnf_address(info) is not None
        )
        visible = tuple((v.name, v.rss) for v in self.sensor.last_scan)

        total = len(profile)
        fetched = 0
        unsignalled = 0
        in_flight = []
        for record in profile.records():
            if record.fetch_state is FetchState.DONE:
                fetched += 1
            elif record.staging_state is StagingState.BLANK:
                unsignalled += 1
            if record.staging_state is StagingState.PENDING:
                in_flight.append(record.cid)

        stale = profile.stale_pending(now, self.staging_signal_timeout)

        queue_bytes = 0
        for port in self.tracker.host.ports:
            link = port.link
            if link is not None:
                queue_bytes += link.forward.queued_bytes
                queue_bytes += link.backward.queued_bytes

        return StagingObservation(
            now=now,
            connected=current is not None,
            current_network=current_network,
            time_in_network=time_in_network,
            vnf_available=self.sensor.current_vnf_address() is not None,
            known_networks=tuple(infos),
            networks_with_vnf=with_vnf,
            visible_networks=visible,
            total_chunks=total,
            fetched_chunks=fetched,
            staged_ahead=profile.staged_ahead(),
            pending_staging=profile.pending_staging(),
            unsignalled_chunks=unsignalled,
            lead_bytes=profile.staged_ahead_bytes(),
            progress_bytes=profile.fetched_bytes(),
            link_queue_bytes=queue_bytes,
            rtt_to_edge=profile.rtt_to_edge.value,
            staging_latency=profile.staging_latency.value,
            edge_fetch_latency=profile.edge_fetch_latency.value,
            staging_latency_samples=profile.staging_latency.samples,
            observed_gap=self.sensor.expected_gap(None),
            observed_encounter=self.sensor.encounter_duration.value,
            stale_cids=tuple(record.cid for record in stale),
            in_flight_cids=frozenset(in_flight),
        )

    def prestage_count(self) -> int:
        """How many chunks the *active* policy pre-stages on handoff."""
        return self.policy.prestage_count(self.observe())

    # -- poll loop ------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.process(self._loop())

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running and not self.profile.all_fetched():
            self.tick()
            yield self.sim.timeout(self.poll_interval)

    def tick(self) -> int:
        """One coordination round; returns chunks newly signalled."""
        self.ticks += 1
        if self.sensor.current_vnf_address() is None:
            return 0  # offline, or no VNF here (fault-tolerance path)

        signalled, decided = self._execute(self.policy.decide(self.observe()))
        if decided:
            self.decisions += 1
        return signalled

    # -- lifecycle hook relays --------------------------------------------------

    def _on_attach(self, association) -> None:
        self._run_hook(
            self.policy.on_attach(self.observe(), association.ap.name)
        )

    def _on_detach(self, association) -> None:
        self._run_hook(
            self.policy.on_detach(self.observe(), association.ap.name)
        )

    def notify_chunk_delivered(self, cid: "XID") -> None:
        """Called by the Chunk Manager after each chunk reaches the app."""
        self._run_hook(self.policy.on_chunk_delivered(self.observe(), cid))

    def _run_hook(self, actions: list[StagingAction]) -> None:
        if not actions:
            return
        _, decided = self._execute(actions)
        if decided:
            self.decisions += 1

    # -- action execution -------------------------------------------------------

    def _resolve_target(self, target: Optional[str]) -> Optional[DagAddress]:
        """Staging-VNF DAG for a network name (None = current network)."""
        if target is None:
            return self.sensor.current_vnf_address()
        return vnf_address(self.sensor.controller.access_points.get(target))

    def _execute(self, actions: list[StagingAction]) -> tuple[int, bool]:
        """Run a policy's action list; returns (signalled, decided)."""
        signalled = 0
        decided = False
        for action in actions:
            if action.kind is ActionKind.STAGE:
                vnf = self._resolve_target(action.target)
                if vnf is None:
                    continue
                records = self.profile.next_to_stage(action.count)
                if records:
                    decided = True
                    signalled += self.tracker.signal(
                        records, vnf, label=action.label or "stage"
                    )
            elif action.kind is ActionKind.RESIGNAL:
                vnf = self._resolve_target(action.target)
                if vnf is None:
                    continue
                records = self._pending_records(action.cids)
                if records:
                    signalled += self.tracker.signal(
                        records, vnf, label=action.label or "re-signal"
                    )
            elif action.kind is ActionKind.CANCEL:
                for record in self._pending_records(action.cids):
                    record.staging_state = StagingState.BLANK
                    record.staging_requested_at = None
        return signalled, decided

    def _pending_records(self, cids) -> list:
        records = (
            self.profile.get(cid) for cid in cids if cid in self.profile
        )
        return [
            record for record in records
            if record.staging_state is StagingState.PENDING
        ]

    def __repr__(self) -> str:
        return (
            f"<StagingCoordinator policy={self.policy.name} "
            f"ticks={self.ticks} decisions={self.decisions}>"
        )
