"""The typed instrumentation event taxonomy.

Every observable happening in the stack is a small frozen dataclass
whose fields are JSON primitives (str/int/float/bool/None) — or, for
:class:`GaugeSample`'s parallel name and value columns, tuples of
them — so a trace can round-trip through JSONL losslessly.  Layers
construct these only when at least one subscriber is attached (see
:class:`repro.obs.probe.Probe`), so an uninstrumented run pays nothing
beyond one attribute check per emit site.

The taxonomy, by emitting layer:

========== ==========================================================
Layer      Events
========== ==========================================================
sim        :class:`ProcessFailed`
obs        :class:`GaugeSample` (one flight-recorder tick: every sampled
           gauge at one instant)
net        :class:`PacketDropped` (one run total per direction,
           published when the run ends)
transport  :class:`SegmentTimeout`, :class:`SegmentRetransmitted` (one
           run total each per sender session, published when the run
           ends), :class:`SessionMigrated`
xcache     :class:`CacheHit`, :class:`CacheStored`, :class:`CacheEvicted`
           (a miss is the store's own count, ``ContentStore.misses``)
core       :class:`CoordinatorTick` (one run total, published when the
           run ends), :class:`StagingSignalled`,
           :class:`ChunkStaged`, :class:`StaleStagingResponse`,
           :class:`StageRequestReceived`, :class:`VnfStageCompleted`,
           :class:`VnfStageFailed`, :class:`ChunkFetched`,
           :class:`HandoffStarted`, :class:`HandoffCompleted`,
           :class:`HandoffDeferred`, :class:`CoverageGap`,
           :class:`EncounterEnded`
========== ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """Marker base class for all instrumentation events."""


# -- sim ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProcessFailed(ObsEvent):
    """A simulation process terminated with an exception."""

    process: str
    error: str


# -- net ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PacketDropped(ObsEvent):
    """One link direction's packet drops, as a run total.

    Published once per direction with drops when the run ends: the sum
    of the direction's ``LinkStats`` drop counters (channel loss, tail
    drop, link down), not once per drop.  A trace with one event per
    drop, per reason or per same-instant batch sums to the same total
    in the wide fold; traces written before ``count`` existed carry
    implicit single-packet drops, which the default keeps loading
    unchanged, and the ``reason`` field older traces carry is dropped
    on read.
    """

    link: str
    count: int = 1


# -- transport -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SegmentTimeout(ObsEvent):
    """One sender session's RTO expiries, as a run total published
    when the run ends, like :class:`SegmentRetransmitted`.  An older
    per-expiry line reads as a total of one, ``seq`` and ``rto``
    dropped."""

    session: int
    count: int = 1


@dataclass(frozen=True, slots=True)
class SegmentRetransmitted(ObsEvent):
    """One sender session's DATA retransmissions (fast retransmit or
    RTO), as a run total.

    Published once per session with retransmissions when the run ends
    (the session counts them as it goes), closed sessions and sessions
    a deadline left open alike.  A trace with one event per segment
    sums to the same counter on replay: its ``seq`` field is dropped
    and ``count`` defaults to one.
    """

    session: int
    count: int = 1


@dataclass(frozen=True, slots=True)
class SessionMigrated(ObsEvent):
    """A sender accepted a MIGRATE and resumed toward a new address."""

    session: int


# -- xcache ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CacheHit(ObsEvent):
    store: str
    cid: str


@dataclass(frozen=True, slots=True)
class CacheStored(ObsEvent):
    store: str
    cid: str
    size_bytes: int


@dataclass(frozen=True, slots=True)
class CacheEvicted(ObsEvent):
    store: str
    cid: str
    size_bytes: int


# -- core ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoordinatorTick(ObsEvent):
    """The staging coordinator's rounds (``count``) and decisions
    (polls and lifecycle hooks that signalled fresh chunks), as one run
    total published when the run ends.  An older per-round line reads
    as a total of one, ``signalled`` and ``offline`` dropped: its
    ``decision`` bool is a count of one or zero."""

    count: int = 1
    decision: int = 0


@dataclass(frozen=True, slots=True)
class StagingSignalled(ObsEvent):
    """The tracker sent one STAGE_REQUEST batch to a VNF.

    ``cids`` is a comma-joined list of the short chunk ids in the
    batch (kept as one string so every field stays a JSON primitive);
    the span layer splits it to open one lifecycle span per chunk.
    """

    count: int
    label: str
    cids: str = ""


@dataclass(frozen=True, slots=True)
class ChunkStaged(ObsEvent):
    """The client learned a chunk is READY at the edge (step 6)."""

    cid: str
    staging_latency: Optional[float]
    control_rtt: Optional[float]


@dataclass(frozen=True, slots=True)
class StaleStagingResponse(ObsEvent):
    """A staging confirmation arrived for an unknown/already-READY chunk."""

    cid: str


@dataclass(frozen=True, slots=True)
class StageRequestReceived(ObsEvent):
    """A VNF received one STAGE_REQUEST batch.

    ``cids`` mirrors :class:`StagingSignalled` (comma-joined short
    chunk ids) so per-chunk spans can mark request arrival.
    """

    vnf: str
    cids: str = ""


@dataclass(frozen=True, slots=True)
class VnfStageCompleted(ObsEvent):
    """A VNF finished prefetching one chunk into its XCache."""

    vnf: str
    cid: str
    latency: float


@dataclass(frozen=True, slots=True)
class VnfStageFailed(ObsEvent):
    """A VNF's prefetch of one chunk failed within the retry budget."""

    vnf: str
    cid: str


@dataclass(frozen=True, slots=True)
class ChunkFetched(ObsEvent):
    """The client completed one ``XfetchChunk*`` delegation call."""

    cid: str
    latency: float
    from_edge: bool
    fallback: bool


@dataclass(frozen=True, slots=True)
class HandoffStarted(ObsEvent):
    target: str


@dataclass(frozen=True, slots=True)
class HandoffCompleted(ObsEvent):
    target: str
    duration: float


@dataclass(frozen=True, slots=True)
class HandoffDeferred(ObsEvent):
    """A chunk-aware policy deferred a switch to the chunk boundary."""

    target: str


@dataclass(frozen=True, slots=True)
class CoverageGap(ObsEvent):
    """The client re-attached after ``duration`` seconds offline."""

    duration: float


@dataclass(frozen=True, slots=True)
class EncounterEnded(ObsEvent):
    """The client left a network after ``duration`` seconds attached."""

    duration: float


# -- flight recorder --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GaugeSample(ObsEvent):
    """One sampler tick: every registered state gauge read at one instant.

    Emitted by :class:`repro.obs.flight.GaugeSampler` on its sim-time
    sampling period, one event per tick.  ``gauges`` names the gauges
    in registration order and ``values`` holds their readings,
    position for position.  Values are pure functions of simulation
    state (never wall clock), so a trace replays into gauge timelines
    identical to the live run's.

    A name has dotted components, coarse to fine —
    ``cache.occupancy_bytes.xcache-A``, ``staging.lead_bytes``,
    ``link.queue_bytes.internet.fwd`` — so consumers can select
    families by prefix.

    Both fields are tuples, also when built from the lists a JSONL
    trace decodes them as, so a replayed tick equals the live one.
    """

    gauges: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        # ``tuple()`` of a tuple is that tuple: live ticks are not copied.
        object.__setattr__(self, "gauges", tuple(self.gauges))
        object.__setattr__(self, "values", tuple(self.values))


#: Name -> class registry used by the JSONL trace replayer.
EVENT_TYPES: dict[str, type[ObsEvent]] = {
    cls.__name__: cls
    for cls in (
        ProcessFailed,
        PacketDropped,
        SegmentTimeout,
        SegmentRetransmitted,
        SessionMigrated,
        CacheHit,
        CacheStored,
        CacheEvicted,
        CoordinatorTick,
        StagingSignalled,
        ChunkStaged,
        StaleStagingResponse,
        StageRequestReceived,
        VnfStageCompleted,
        VnfStageFailed,
        ChunkFetched,
        HandoffStarted,
        HandoffCompleted,
        HandoffDeferred,
        CoverageGap,
        EncounterEnded,
        GaugeSample,
    )
}


#: The envelope every JSONL trace line opens with, ahead of the event's
#: own fields; an event field may not reuse one of these keys.
ENVELOPE_KEYS = ("t", "run", "type")

#: Event class -> ``(wire name, field names in wire order)``: the JSONL
#: schema of one event, which the trace exporter compiles its line
#: layout from and the trace reader and the auditor's evidence renderer
#: read instead of reflecting per event.
_SCHEMAS: dict[type, tuple[str, tuple[str, ...]]] = {}


def event_schema(cls: type) -> tuple[str, tuple[str, ...]]:
    """``(wire name, field names)`` of event class ``cls``.

    Filled for every class in :data:`EVENT_TYPES` at import and on first
    sight for any other event dataclass (a test-defined one, say).
    """
    schema = _SCHEMAS.get(cls)
    if schema is None:
        names = tuple(f.name for f in fields(cls))
        clash = sorted(set(names).intersection(ENVELOPE_KEYS))
        if clash:
            raise TypeError(
                f"{cls.__name__} field(s) {clash} collide with the trace "
                f"envelope keys {ENVELOPE_KEYS}"
            )
        schema = _SCHEMAS[cls] = (cls.__name__, names)
    return schema


for _cls in EVENT_TYPES.values():
    event_schema(_cls)
del _cls
