"""Fixed-memory, mergeable, deterministic metric sketches.

Every metric the observability stack has grown so far is *exact* and
therefore unbounded: a :class:`~repro.sim.monitor.TimeSeries` holds one
``(t, v)`` pair per sample, a wide-event file holds one record per
chunk.  That is fine for one vehicle and fatal for the ROADMAP's
fleet scenarios — thousands of vehicles × per-chunk latencies ×
per-gauge samples is O(samples) memory per run and O(runs × samples)
in the registry.

This module provides the bounded alternative: **sketches** — small,
fixed-size summaries that

- fold a stream of values one at a time (``add``),
- **merge** associatively across parallel-sweep workers and across
  runs (``merge``), and
- serialize into compact JSON for :class:`~repro.obs.registry.RunRecord`
  storage (``to_json`` / the module-level :func:`load_sketch`).

Two sketch kinds cover the SLO engine's needs:

:class:`StatSketch`
    count / sum / min / max (and mean) — exact, O(1).
:class:`QuantileSketch`
    a deterministic merging digest (t-digest family): values collapse
    into at most ``compression`` weighted centroids, kept sorted by
    mean.  Quantile queries interpolate between centroid midpoints, so
    rank error is bounded by half the largest centroid weight —
    ≈ ``count / (2 · compression)``, i.e. well under 1 % rank error at
    the default compression of 256 (asserted by a hypothesis test).
    Unlike the classical randomized t-digest, compression here is a
    pure function of the sorted centroid list, so identical input
    streams produce identical sketches (the determinism the registry
    and the ``runs why`` report depend on).

:class:`SketchRecorder` is the pipeline glue: attach it to a run's
event bus and it folds every flight-recorder gauge sample into
per-gauge sketches; hand its :meth:`~SketchRecorder.feed_wide` to a
:class:`~repro.obs.wide.WideEventBuilder` sink and it folds every
chunk lifecycle's phase latencies into per-phase sketches.  The
recorder is a pure fold over streams that are themselves deterministic,
so fixed-seed runs produce byte-identical serialized sketches.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample

#: Default centroid budget for :class:`QuantileSketch`.  Rank error is
#: ≈ 1/(2·compression) ≤ 0.2 %, comfortably inside the 1 % contract.
DEFAULT_COMPRESSION = 256

#: Chunk-record fields :class:`SketchRecorder` folds into per-phase
#: quantile sketches (``wide.<field>`` names).
WIDE_PHASE_FIELDS = (
    "fetch_latency",
    "stage_latency",
    "staging_latency",
    "control_rtt",
    "stage_wait_s",
    "ready_wait_s",
    "masked_s",
)


class StatSketch:
    """Exact count / sum / min / max in O(1) memory."""

    kind = "stat"

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def merge(self, other: "StatSketch") -> "StatSketch":
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def to_json(self) -> dict:
        payload = {"kind": self.kind, "count": self.count, "sum": self.total}
        if self.count:
            payload["min"] = self.minimum
            payload["max"] = self.maximum
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "StatSketch":
        sketch = cls()
        sketch.count = int(payload.get("count", 0))
        sketch.total = float(payload.get("sum", 0.0))
        if sketch.count:
            sketch.minimum = float(payload["min"])
            sketch.maximum = float(payload["max"])
        return sketch

    def __repr__(self) -> str:
        if not self.count:
            return "<StatSketch empty>"
        return (
            f"<StatSketch n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )


class QuantileSketch:
    """A deterministic merging quantile digest with bounded memory.

    State is a sorted list of ``(mean, weight)`` centroids, at most
    ``compression`` of them after a compression pass, plus an insert
    buffer of the same size (so ``add`` is amortized O(1) between
    compressions).  Compression sorts centroids by mean and greedily
    merges neighbours while the merged weight stays within the uniform
    cap ``ceil(count / compression)`` — no randomness, no insertion
    ordering effects beyond the stream order itself, which is exactly
    the determinism contract the rest of the pipeline keeps.

    The true ``min``/``max`` are tracked exactly, so the extreme
    quantiles (q→0, q→1) are exact.  Interior quantiles answer with
    the mean of the centroid covering the target rank (nearest rank
    over centroids): while every centroid is a singleton — i.e. until
    the stream outgrows ``compression`` — that is *exact* nearest-rank
    selection, and with merged centroids the rank error is bounded by
    the per-centroid weight cap ``ceil(count / compression)``, so
    relative rank error stays ≈ ``1 / compression``.  After greedy
    packing the centroid list holds at most ``2 · compression``
    entries (a pack that can't fit splits, never grows a third time).
    """

    kind = "quantile"

    __slots__ = ("compression", "count", "total", "minimum", "maximum",
                 "_centroids", "_buffer")

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        if compression < 8:
            raise ValueError(f"compression {compression} too small (min 8)")
        self.compression = int(compression)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._centroids: list[tuple[float, float]] = []
        self._buffer: list[float] = []

    # -- folding -------------------------------------------------------------

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._buffer.append(value)
        if len(self._buffer) >= self.compression:
            self._compress()

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (associative up to rank error)."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._buffer.extend(other._buffer)
        self._centroids.extend(other._centroids)
        self._compress()
        return self

    def _compress(self) -> None:
        pending = self._centroids + [(v, 1.0) for v in self._buffer]
        self._buffer = []
        if not pending:
            return
        pending.sort()
        total = sum(w for _m, w in pending)
        cap = math.ceil(total / self.compression)
        merged: list[tuple[float, float]] = []
        mean, weight = pending[0]
        for m, w in pending[1:]:
            if weight + w <= cap:
                weight += w
                mean += (m - mean) * (w / weight)
            else:
                merged.append((mean, weight))
                mean, weight = m, w
        merged.append((mean, weight))
        self._centroids = merged

    # -- queries -------------------------------------------------------------

    @property
    def centroids(self) -> list[tuple[float, float]]:
        """The compressed ``(mean, weight)`` list (flushes the buffer)."""
        if self._buffer:
            self._compress()
        return list(self._centroids)

    @property
    def mean(self) -> Optional[float]:
        """Exact stream mean (the sum is tracked alongside)."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The value at rank ``q`` ∈ [0, 1]; ``None`` on an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return None
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        # Nearest rank over centroids: the first centroid whose
        # cumulative weight reaches the target rank answers with its
        # mean.  Singleton centroids (the n ≤ compression regime) make
        # this *exact* nearest-rank; weighted centroids bound the rank
        # error by the centroid cap — see the class docstring.
        target = q * self.count
        cum = 0.0
        for mean, weight in self.centroids:
            cum += weight
            if cum >= target:
                return mean
        return self.maximum

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        payload = {
            "kind": self.kind,
            "compression": self.compression,
            "count": self.count,
        }
        if self.count:
            payload["sum"] = self.total
            payload["min"] = self.minimum
            payload["max"] = self.maximum
            payload["c"] = [[m, w] for m, w in self.centroids]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "QuantileSketch":
        sketch = cls(int(payload.get("compression", DEFAULT_COMPRESSION)))
        sketch.count = int(payload.get("count", 0))
        if sketch.count:
            sketch.total = float(payload.get("sum", 0.0))
            sketch.minimum = float(payload["min"])
            sketch.maximum = float(payload["max"])
            sketch._centroids = [
                (float(m), float(w)) for m, w in payload.get("c", [])
            ]
        return sketch

    def __repr__(self) -> str:
        if not self.count:
            return "<QuantileSketch empty>"
        return (
            f"<QuantileSketch n={self.count} "
            f"p50={self.quantile(0.5):.4g} p95={self.quantile(0.95):.4g} "
            f"centroids={len(self._centroids)}>"
        )


# ---------------------------------------------------------------------------
# Sketch sets: serialize / load / merge by name
# ---------------------------------------------------------------------------

_KINDS = {
    StatSketch.kind: StatSketch,
    QuantileSketch.kind: QuantileSketch,
}


def load_sketch(payload: dict):
    """One serialized sketch back to its live type (KeyError on unknown)."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise KeyError(f"unknown sketch kind {kind!r}")
    return _KINDS[kind].from_json(payload)


def serialize_sketches(sketches: dict) -> dict:
    """``{name: sketch}`` → ``{name: payload}`` (registry storage shape)."""
    return {name: sketches[name].to_json() for name in sorted(sketches)}


def load_sketches(payload: dict) -> dict:
    """Inverse of :func:`serialize_sketches`; unknown kinds are skipped
    (the registry's forward-compat rule: never explode on newer data)."""
    sketches = {}
    for name, body in payload.items():
        try:
            sketches[name] = load_sketch(body)
        except (KeyError, TypeError, ValueError):
            continue
    return sketches


def merge_sketch_sets(target: dict, other: dict) -> dict:
    """Merge ``other``'s sketches into ``target`` (name-wise, in place).

    Names only present in ``other`` are copied in via a fresh
    serialize/load round trip, so ``target`` never aliases ``other``'s
    live state.  Mismatched kinds under one name raise ``ValueError``.
    """
    for name in sorted(other):
        sketch = other[name]
        mine = target.get(name)
        if mine is None:
            target[name] = load_sketch(sketch.to_json())
        elif mine.kind != sketch.kind:
            raise ValueError(
                f"sketch {name!r}: cannot merge kind {sketch.kind!r} "
                f"into {mine.kind!r}"
            )
        else:
            mine.merge(sketch)
    return target


# ---------------------------------------------------------------------------
# The pipeline glue: bus gauges + wide-event phases → sketch set
# ---------------------------------------------------------------------------


class SketchRecorder:
    """Folds a run's telemetry into a bounded sketch set.

    Two inputs, both optional:

    - :meth:`attach` subscribes to the event bus and folds every
      :class:`~repro.obs.events.GaugeSample` into ``gauge.<name>``
      stat + quantile sketches;
    - :meth:`feed_wide` (hand it to a wide-event builder's ``sinks``)
      folds every chunk record's phase latencies into
      ``wide.<field>`` quantile sketches and the
      staged-before-fetch indicator into ``wide.ready_before_fetch``
      (whose mean is the SLO engine's ``ready_before_fetch_ratio``).

    Memory is O(gauges + phases), never O(samples): the fleet-scale
    prerequisite.  Both folds are pure functions of deterministic
    streams, so fixed-seed runs serialize identically.
    """

    def __init__(self) -> None:
        self.sketches: dict = {}
        self.wide_records = 0
        self._bus: Optional[EventBus] = None

    # -- wiring --------------------------------------------------------------

    def attach(self, bus: EventBus) -> "SketchRecorder":
        self._bus = bus
        bus.subscribe(GaugeSample, self._on_gauge)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(GaugeSample, self._on_gauge)
            self._bus = None

    # -- folds ---------------------------------------------------------------

    def _stat(self, name: str) -> StatSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = StatSketch()
        return sketch

    def _quantile(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def _on_gauge(self, stamped: Stamped) -> None:
        event = stamped.event
        name = f"gauge.{event.gauge}"
        self._stat(name).add(event.value)
        self._quantile(f"{name}.q").add(event.value)

    def feed_wide(self, record: dict) -> None:
        """Fold one wide-event record (chunk records carry the phases)."""
        self.wide_records += 1
        if record.get("kind") != "chunk":
            return
        for field in WIDE_PHASE_FIELDS:
            value = record.get(field)
            if isinstance(value, (int, float)):
                self._quantile(f"wide.{field}").add(float(value))
        ready_wait = record.get("ready_wait_s")
        staged_ahead = (
            isinstance(ready_wait, (int, float)) and ready_wait >= 0.0
        )
        self._stat("wide.ready_before_fetch").add(1.0 if staged_ahead else 0.0)
        source = record.get("source")
        if source:
            self._stat(f"wide.source.{source}").add(
                record.get("fetch_latency") or 0.0
            )

    def to_json(self) -> dict:
        """The registry-storable sketch set."""
        return serialize_sketches(self.sketches)


def sketches_from_wide(records: Iterable[dict]) -> dict:
    """Offline fold: wide-event records → live sketch set.

    The same fold as a live :class:`SketchRecorder` wide sink, so
    sketches computed from a replayed wide file equal the live run's
    (the ``runs why`` determinism contract).
    """
    recorder = SketchRecorder()
    for record in records:
        recorder.feed_wide(record)
    return recorder.sketches
