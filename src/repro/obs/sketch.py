"""Fixed-memory, deterministic distribution sketches.

A wide-event file holds one record per chunk; a run's registry record
keeps, per chunk-lifecycle phase, a **sketch** instead: a small,
fixed-size summary that

- folds a stream of values one at a time (``add``), and
- serializes into compact JSON for :class:`~repro.obs.registry.RunRecord`
  storage (``to_json`` / :func:`load_sketches`).

There is one sketch kind, :class:`QuantileSketch`: exact count / sum /
min / max (so an exact mean) plus a deterministic merging digest
(t-digest family) whose values collapse into at most ``compression``
weighted centroids, kept sorted by mean.  Rank error is bounded by half
the largest centroid weight — ≈ ``count / (2 · compression)``, i.e. well
under 1 % at the default compression of 256 (asserted by a hypothesis
test).  Unlike the classical randomized t-digest, compression here is a
pure function of the sorted centroid list, so identical input streams
produce identical sketches (the determinism the registry and the
``runs why`` report depend on).

:class:`SketchRecorder` is the wide-event sink: hand its
:meth:`~SketchRecorder.feed_wide` to a
:class:`~repro.obs.wide.WideEventBuilder` and it folds every chunk
lifecycle's phase latencies into per-phase sketches, and
:func:`sketches_from_wide` runs the same fold over a wide file.  Gauge
samples are not sketched: a run that samples gauges records their full
timelines, and the SLO engine judges those.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

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
        """The value at rank ``q`` ∈ [0, 1]; ``None`` on an empty sketch,
        and for an interior ``q`` on one loaded without centroids (a
        registry line's ``stat`` payload)."""
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
        return None

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


# ---------------------------------------------------------------------------
# Sketch sets: serialize / load by name
# ---------------------------------------------------------------------------

#: Payload kinds that load.  A ``stat`` payload (written before there
#: was one sketch kind) carries count / sum / min / max and no
#: centroids, so it loads as a :class:`QuantileSketch` whose mean, min
#: and max answer and whose percentiles are no-data.
_KINDS = (QuantileSketch.kind, "stat")


def serialize_sketches(sketches: dict) -> dict:
    """``{name: sketch}`` → ``{name: payload}`` (registry storage shape)."""
    return {name: sketches[name].to_json() for name in sorted(sketches)}


def load_sketches(payload: dict) -> dict:
    """Inverse of :func:`serialize_sketches`.  A body that is not an
    object, or not of a kind that loads, is skipped (the registry's
    forward-compat rule: never explode on newer or damaged data)."""
    sketches = {}
    for name, body in payload.items():
        if not isinstance(body, dict) or body.get("kind") not in _KINDS:
            continue
        try:
            sketches[name] = QuantileSketch.from_json(body)
        except (KeyError, TypeError, ValueError):
            continue
    return sketches


# ---------------------------------------------------------------------------
# The wide-event sink: chunk phases → sketch set
# ---------------------------------------------------------------------------


class SketchRecorder:
    """Folds a run's wide events into a bounded sketch set.

    Hand :meth:`feed_wide` to a wide-event builder's ``sinks``: it
    folds every chunk record's phase latencies into ``wide.<field>``
    sketches and the staged-before-fetch indicator into
    ``wide.ready_before_fetch`` (whose mean is the SLO engine's
    ``ready_before_fetch_ratio``).

    Memory is O(phases), never O(chunks).  The fold is a pure function
    of a deterministic stream, so fixed-seed runs serialize identically.
    """

    def __init__(self) -> None:
        self.sketches: dict = {}

    def _sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def feed_wide(self, record: dict) -> None:
        """Fold one wide-event record (chunk records carry the phases)."""
        if record.get("kind") != "chunk":
            return
        for field in WIDE_PHASE_FIELDS:
            value = record.get(field)
            if isinstance(value, (int, float)):
                self._sketch(f"wide.{field}").add(float(value))
        ready_wait = record.get("ready_wait_s")
        staged_ahead = (
            isinstance(ready_wait, (int, float)) and ready_wait >= 0.0
        )
        self._sketch("wide.ready_before_fetch").add(
            1.0 if staged_ahead else 0.0
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
