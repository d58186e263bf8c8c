"""The flight recorder: sampled state gauges + a runtime invariant auditor.

The event/span layers (DESIGN.md §7–8) record *happenings*; this module
records *state over time* — exactly what the paper's evaluation plots
(cache occupancy, staging lead, queue depths across disconnection
gaps) — and continuously checks that the stream of happenings is
self-consistent.

Two cooperating pieces:

:class:`GaugeSampler`
    A simulation process that, every ``period`` sim-seconds, reads a
    set of registered gauges (name → zero-argument callable) and emits
    the whole tick as one :class:`~repro.obs.events.GaugeSample` —
    the names in registration order beside their readings — through
    the simulator's probe.  A tick lands on the bus like every other
    event, so the :class:`~repro.metrics.collector.MetricsCollector`
    keeps it as a tick (its ``timelines`` project one timeline per
    gauge), it exports to one JSONL line, and it replays into
    *identical* timelines offline.
    Sampling is off by default and adds **zero hot-path overhead** when
    off: no per-packet work anywhere, only a periodic timer while
    installed.

:class:`InvariantAuditor`
    A bus subscriber that enters the event stream into its own books
    and checks conservation laws as the run progresses: cache
    byte-accounting (Σ stored − Σ evicted == sampled occupancy),
    staging state-machine legality (READY only after PENDING, never
    twice), per-run time monotonicity, gauge sanity and pool balance;
    at run end, its per-type event counts against the counts the
    emitting objects keep (double entry).  A failed check produces a
    structured :class:`InvariantViolation` carrying the offending
    timeline slice; ``strict=True`` raises
    :class:`InvariantViolationError` at the violation site.

Wiring for the standard testbed lives in
:func:`install_flight_recorder`, which registers the default gauge set
(XCache occupancy, staging pipeline depth and Eq. 1 lead, link queue
depths and utilization, client connectivity, kernel/packet pool
levels) against a :class:`~repro.experiments.scenario.TestbedScenario`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from repro.obs import events as ev
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample, event_schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import StagingManager
    from repro.experiments.scenario import TestbedScenario
    from repro.sim import Simulator


#: How many trailing bus events a violation report carries.
TIMELINE_SLICE = 16


class GaugeSampler:
    """Periodically samples registered gauges into the event stream."""

    #: Simulated seconds between sample batches.  Coarse enough that a
    #: 60-second download costs ~120 samples per gauge, fine enough to
    #: resolve the paper's multi-second encounter/gap structure.
    period = 0.5

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: The names, in registration order: every tick's ``gauges``.
        self._names: tuple[str, ...] = ()
        self._gauges: list[Callable[[], float]] = []
        self._process = None
        self.samples_taken = 0

    def register(self, name: str, fn: Callable[[], float]) -> "GaugeSampler":
        """Register gauge ``name`` (sampled in registration order)."""
        if name in self._names:
            raise ValueError(f"gauge {name!r} already registered")
        self._names += (name,)
        self._gauges.append(fn)
        return self

    def sample_now(self) -> None:
        """Read every gauge once and emit the tick at ``sim.now``."""
        probe = self.sim.probe
        if not probe.active:
            return
        values = tuple([float(fn()) for fn in self._gauges])
        probe.emit(GaugeSample(self._names, values))
        self.samples_taken += 1

    def start(self) -> "GaugeSampler":
        """Begin periodic sampling (first batch fires immediately)."""
        if self._process is None:
            self._process = self.sim.process(self._sampler())
        return self

    def _sampler(self):
        while True:
            self.sample_now()
            yield self.sim.timeout(self.period)

    def __repr__(self) -> str:
        state = "running" if self._process is not None else "idle"
        return (
            f"<GaugeSampler {state} period={self.period}s "
            f"gauges={len(self._gauges)} samples={self.samples_taken}>"
        )


# ---------------------------------------------------------------------------
# Invariant auditing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantViolation:
    """One failed conservation/consistency check, with its evidence."""

    invariant: str
    time: float
    run_id: str
    detail: str
    #: The trailing bus events leading up to the violation, already
    #: formatted one per line (newest last).
    timeline: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [
            f"invariant {self.invariant!r} violated at t={self.time:.6f} "
            f"(run {self.run_id}): {self.detail}"
        ]
        if self.timeline:
            lines.append("  timeline slice (oldest first):")
            lines.extend(f"    {entry}" for entry in self.timeline)
        return "\n".join(lines)


class InvariantViolationError(AssertionError):
    """Raised by a strict :class:`InvariantAuditor` on the first violation."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = list(violations)
        super().__init__(
            "\n".join(violation.render() for violation in self.violations)
        )


class InvariantAuditor:
    """Continuously audits the event stream for conservation violations.

    :meth:`check_object_totals` holds its per-type event books against
    the counts the emitting objects keep (a store's hits, the
    coordinator's ticks): the emit site and the counter are different
    code, so an emit lost, doubled or guarded apart is a violation.

    Invariants checked while events flow:

    ``cache-conservation``
        For every store, the sampled ``cache.occupancy_bytes.<store>``
        gauge must equal Σ ``CacheStored.size_bytes`` − Σ
        ``CacheEvicted.size_bytes`` observed so far, and the running
        balance must never go negative.
    ``staging-state``
        ``ChunkStaged`` (READY) is only legal for a chunk previously
        signalled PENDING (``StagingSignalled``), and never twice —
        duplicate confirmations must surface as
        ``StaleStagingResponse`` instead.
    ``monotonic-time``
        Per run id, event timestamps never decrease.
    ``gauge-sane``
        No registered gauge ever samples negative.
    ``pool-balance``
        The kernel free list can never hold more events than were
        ever allocated (``pool.events_free`` ≤ ``pool.event_allocs``);
        same for the packet pool.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: list[InvariantViolation] = []
        self._bus: Optional[EventBus] = None
        #: The trailing events, kept as published (they are frozen) and
        #: rendered by :meth:`_evidence` only when a violation needs them.
        self._timeline: deque[Stamped] = deque(maxlen=TIMELINE_SLICE)
        #: Per-event-type counts, one side of the double entry.
        self.event_counts: Counter[str] = Counter()
        # cache-conservation books.
        self._store_balance: dict[str, int] = {}
        self._stored_cids: set[str] = set()
        # staging-state books.
        self._pending_cids: set[str] = set()
        self._ready_cids: set[str] = set()
        # monotonic-time books.
        self._last_time: dict[str, float] = {}
        # pool-balance books (latest sampled levels).
        self._gauge_latest: dict[str, float] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, bus: EventBus) -> "InvariantAuditor":
        self._bus = bus
        bus.subscribe_all(self._on_event)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe_all(self._on_event)
            self._bus = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def events_audited(self) -> int:
        return sum(self.event_counts.values())

    # -- violation plumbing -------------------------------------------------

    def _evidence(self) -> tuple[str, ...]:
        """The trailing events, one formatted line each (newest last)."""
        lines = []
        for stamped in self._timeline:
            event = stamped.event
            kind, names = event_schema(type(event))
            lines.append(
                f"t={stamped.time:.6f} {kind} "
                + " ".join(f"{name}={getattr(event, name)!r}" for name in names)
            )
        return tuple(lines)

    def _violate(self, stamped: Stamped, invariant: str, detail: str) -> None:
        violation = InvariantViolation(
            invariant=invariant,
            time=stamped.time,
            run_id=stamped.run_id,
            detail=detail,
            timeline=self._evidence(),
        )
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolationError([violation])

    # -- the audit ----------------------------------------------------------

    def _on_event(self, stamped: Stamped) -> None:
        cls = type(stamped.event)
        self.event_counts[cls.__name__] += 1
        self._timeline.append(stamped)

        # monotonic-time: per run id, time never goes backwards.
        last = self._last_time.get(stamped.run_id)
        if last is not None and stamped.time < last:
            self._violate(
                stamped, "monotonic-time",
                f"event at t={stamped.time} after t={last} in the same run",
            )
        self._last_time[stamped.run_id] = max(stamped.time, last or stamped.time)

        book = self._BOOKS.get(cls)
        if book is not None:
            book(self, stamped, stamped.event)

    # One method per event type the auditor keeps books on; every other
    # type costs its count, the monotonic-time check and a timeline slot.

    def _book_cache_stored(self, stamped: Stamped, event: ev.CacheStored) -> None:
        balance = self._store_balance.get(event.store, 0) + event.size_bytes
        self._store_balance[event.store] = balance
        self._stored_cids.add(event.cid)

    def _book_cache_evicted(self, stamped: Stamped, event: ev.CacheEvicted) -> None:
        balance = self._store_balance.get(event.store, 0) - event.size_bytes
        self._store_balance[event.store] = balance
        if balance < 0:
            self._violate(
                stamped, "cache-conservation",
                f"store {event.store!r} evicted more bytes than it ever "
                f"stored (balance {balance})",
            )

    def _book_cache_hit(self, stamped: Stamped, event: ev.CacheHit) -> None:
        self._stored_cids.add(event.cid)

    def _book_staging_signalled(
        self, stamped: Stamped, event: ev.StagingSignalled
    ) -> None:
        for cid in filter(None, event.cids.split(",")):
            self._pending_cids.add(cid)

    def _book_chunk_staged(self, stamped: Stamped, event: ev.ChunkStaged) -> None:
        if event.cid in self._ready_cids:
            self._violate(
                stamped, "staging-state",
                f"chunk {event.cid} confirmed READY twice (duplicate "
                f"confirmations must be StaleStagingResponse)",
            )
        elif event.cid not in self._pending_cids:
            self._violate(
                stamped, "staging-state",
                f"chunk {event.cid} confirmed READY without a prior "
                f"staging signal (never PENDING)",
            )
        self._pending_cids.discard(event.cid)
        self._ready_cids.add(event.cid)

    def _book_vnf_staged(
        self, stamped: Stamped, event: ev.VnfStageCompleted
    ) -> None:
        if event.cid not in self._stored_cids:
            self._violate(
                stamped, "cache-conservation",
                f"VNF {event.vnf!r} announced chunk {event.cid} staged "
                f"but no store ever held it",
            )

    def _book_gauge(self, stamped: Stamped, event: GaugeSample) -> None:
        # In tick order: the pool-balance bounds (allocation counters)
        # are registered, so read, before the free lists they bound.
        latest = self._gauge_latest
        for name, value in zip(event.gauges, event.values):
            if value < 0:
                self._violate(
                    stamped, "gauge-sane",
                    f"gauge {name!r} sampled negative ({value})",
                )
            latest[name] = value
            if name.startswith("cache.occupancy_bytes."):
                store = name.rsplit(".", 1)[1]
                balance = self._store_balance.get(store, 0)
                if value != balance:
                    self._violate(
                        stamped, "cache-conservation",
                        f"store {store!r} occupancy gauge reads {value:g} "
                        f"but stored−evicted balance is {balance}",
                    )
            elif name == "pool.events_free":
                allocs = latest.get("pool.event_allocs")
                if allocs is not None and value > allocs:
                    self._violate(
                        stamped, "pool-balance",
                        f"kernel event free list holds {value:g} events "
                        f"but only {allocs:g} were ever allocated",
                    )
            elif name == "pool.packets_free":
                releases = latest.get("pool.packet_releases")
                if releases is not None and value > releases:
                    self._violate(
                        stamped, "pool-balance",
                        f"packet free list holds {value:g} packets but "
                        f"only {releases:g} were ever released",
                    )

    #: Event type -> the book it is entered in.
    _BOOKS = {
        ev.CacheStored: _book_cache_stored,
        ev.CacheEvicted: _book_cache_evicted,
        ev.CacheHit: _book_cache_hit,
        ev.StagingSignalled: _book_staging_signalled,
        ev.ChunkStaged: _book_chunk_staged,
        ev.VnfStageCompleted: _book_vnf_staged,
        GaugeSample: _book_gauge,
    }

    # -- end-of-run checks ---------------------------------------------------

    def check_object_totals(
        self, totals: dict[str, tuple[str, int]]
    ) -> list[InvariantViolation]:
        """Double entry: the auditor's event books against the objects.

        ``totals`` maps an event type name to ``(source, count)``: what
        the objects emitting that type counted of the same happening
        (``{"CacheHit": ("Σ store.hits", 12), ...}``).  Every pair whose
        two counts differ is a violation naming both sides.  Returns
        (and records) the violations found; strict mode raises.
        """
        counts = self.event_counts
        found = [
            InvariantViolation(
                invariant="event-totals",
                time=float("nan"),
                run_id="*",
                detail=(
                    f"the bus carried {counts.get(kind, 0)} {kind} events "
                    f"but {source} is {want}"
                ),
                timeline=self._evidence(),
            )
            for kind, (source, want) in totals.items()
            if counts.get(kind, 0) != want
        ]
        self.violations.extend(found)
        if found and self.strict:
            raise InvariantViolationError(found)
        return found

    def render(self) -> str:
        if self.ok:
            return (
                f"invariant audit: OK ({self.events_audited} events audited)"
            )
        lines = [
            f"invariant audit: {len(self.violations)} violation(s) over "
            f"{self.events_audited} events"
        ]
        lines.extend(violation.render() for violation in self.violations)
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"<InvariantAuditor {status} events={self.events_audited}>"


# ---------------------------------------------------------------------------
# Standard testbed gauge set
# ---------------------------------------------------------------------------


def _utilization_gauge(direction, sim) -> Callable[[], float]:
    """Windowed link utilization: busy-time delta over the sample window."""
    state = {"t": sim.now, "busy": direction.stats.busy_time}

    def gauge() -> float:
        now = sim.now
        busy = direction.stats.busy_time
        elapsed = now - state["t"]
        share = (busy - state["busy"]) / elapsed if elapsed > 0 else 0.0
        state["t"] = now
        state["busy"] = busy
        # ARQ retries can push busy-time past wall time transiently;
        # clamp so the gauge stays a fraction.
        return min(max(share, 0.0), 1.0)

    return gauge


def install_flight_recorder(
    scenario: "TestbedScenario",
    manager: Optional["StagingManager"] = None,
) -> GaugeSampler:
    """Register the standard gauge set for one testbed and start sampling.

    Gauges (all pure functions of sim state, so traces replay exactly):

    - ``cache.occupancy_bytes.<store>`` / ``cache.chunks.<store>`` /
      ``cache.pinned.<store>`` — per-edge XCache state;
    - ``staging.pending_chunks`` — staging pipeline depth (signalled,
      unconfirmed);
    - ``staging.staged_ahead_chunks`` — N in Eq. 1;
    - ``staging.lead_bytes`` — staged-ahead bytes vs client progress,
      the just-in-time quantity the coordinator controls;
    - ``client.progress_bytes`` — bytes of content fetched so far;
    - ``client.connected`` — 1.0 while associated to any AP;
    - ``link.queue_bytes.<link>.{fwd,bwd}`` and
      ``link.utilization.<link>.{fwd,bwd}`` — queue depth and windowed
      utilization per direction;
    - ``pool.event_allocs`` / ``pool.events_free`` and
      ``pool.packet_releases`` / ``pool.packets_free`` — recycling
      levels (the auditor's pool-balance inputs).

    ``manager`` adds the staging-pipeline gauges; pass the
    ``SoftStageClient.manager`` when auditing a SoftStage run (Xftp
    runs have no staging pipeline).
    """
    from repro.xia.packet import packet_pool_stats

    sim = scenario.sim
    sampler = GaugeSampler(sim)

    for edge in scenario.edges:
        store = edge.store
        name = store.name
        sampler.register(
            f"cache.occupancy_bytes.{name}",
            lambda s=store: s.used_bytes,
        )
        sampler.register(f"cache.chunks.{name}", lambda s=store: len(s))
        sampler.register(
            f"cache.pinned.{name}", lambda s=store: s.pinned_count
        )

    if manager is not None:
        profile = manager.profile
        sampler.register(
            "staging.pending_chunks", profile.pending_staging
        )
        sampler.register(
            "staging.staged_ahead_chunks", profile.staged_ahead
        )
        sampler.register("staging.lead_bytes", profile.staged_ahead_bytes)
        sampler.register("client.progress_bytes", profile.fetched_bytes)

    controller = scenario.controller
    sampler.register(
        "client.connected",
        lambda: 1.0 if controller.is_associated else 0.0,
    )

    for link in scenario.network.links:
        for tag, direction in (("fwd", link.forward), ("bwd", link.backward)):
            sampler.register(
                f"link.queue_bytes.{link.name}.{tag}",
                lambda d=direction: d.queued_bytes,
            )
            sampler.register(
                f"link.utilization.{link.name}.{tag}",
                _utilization_gauge(direction, sim),
            )

    # Pool levels: allocation counters sampled before free-list levels
    # (a tick keeps registration order) so the auditor's pool-balance
    # check always sees a fresh bound.
    sampler.register("pool.event_allocs", lambda: sim.pool_allocs)
    sampler.register("pool.events_free", lambda: len(sim._event_pool))
    sampler.register(
        "pool.packet_releases",
        lambda: packet_pool_stats()["releases"],
    )
    sampler.register(
        "pool.packets_free", lambda: packet_pool_stats()["size"]
    )

    return sampler.start()
