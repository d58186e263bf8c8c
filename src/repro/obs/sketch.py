"""Deterministic per-phase distributions of a run's chunk lifecycles.

A run's registry record keeps, per chunk-lifecycle phase, a
:class:`QuantileSketch`: exact count / sum / min / max and the values
themselves, one per chunk (16 for a 32 MB download at Table III's 2 MB
chunk).  Percentiles are exact :func:`nearest_rank`, the rule the SLO
engine also judges gauge windows by.  :class:`SketchRecorder` folds
them live and :func:`sketches_from_wide` offline; gauges are not
sketched, a run that samples them records their full timelines.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

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


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The value at rank ``q`` ∈ [0, 1] of the non-empty ascending
    ``ordered``: its ⌈q·n⌉-th smallest, and the smallest at q = 0."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class QuantileSketch:
    """A stream's exact moments and its values.

    ``total`` is summed in stream order: ``sum`` compensates from
    Python 3.12 on and would move the mean.  The values are sorted in
    place when a query or :meth:`to_json` needs them.  A sketch loaded
    without its values keeps only the moments (fewer values than
    ``count``).
    """

    kind = "quantile"

    __slots__ = ("count", "total", "minimum", "maximum", "_values")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._values: list[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._values.append(value)

    @property
    def mean(self) -> Optional[float]:
        """Exact stream mean (the sum is tracked alongside)."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The value at rank ``q`` ∈ [0, 1] (:func:`nearest_rank`);
        ``None`` on an empty sketch, and for an interior ``q`` on one
        that keeps only its moments."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return None
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        if len(self._values) < self.count:
            return None
        self._values.sort()
        return nearest_rank(self._values, q)

    def to_json(self) -> dict:
        """The registry payload, in the replaced centroid digest's format
        (``compression``, unit weights): ≤ 256 values match it bytewise."""
        payload = {"kind": self.kind, "compression": 256,
                   "count": self.count}
        if self.count:
            payload["sum"] = self.total
            payload["min"] = self.minimum
            payload["max"] = self.maximum
            if len(self._values) == self.count:
                self._values.sort()
                payload["c"] = [[v, 1.0] for v in self._values]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "QuantileSketch":
        """Inverse of :meth:`to_json`.  ``c`` pairs of weight 1 are the
        values; a heavier pair (the older digest's, past 256 values) or
        no ``c`` (a ``stat`` payload) keeps only the moments.  Raises
        ``ValueError`` for a ``count`` that is not a non-negative
        integer, or that ``c``'s positive integer weights miss."""
        count = payload.get("count", 0)
        if type(count) is not int or count < 0:
            raise ValueError(f"sketch count {count!r} is not a count")
        sketch = cls()
        sketch.count = count
        if "c" in payload:
            pairs = [(float(v), float(w)) for v, w in payload["c"]]
            if sum(w for _v, w in pairs) != count or not all(
                    w >= 1.0 and w.is_integer() for _v, w in pairs):
                raise ValueError(f"sketch weights do not sum to {count}")
            # Positive integer weights sum to count: all 1 iff n pairs.
            if len(pairs) == count:
                sketch._values = [v for v, _w in pairs]
        if count:
            sketch.total = float(payload.get("sum", 0.0))
            sketch.minimum = float(payload["min"])
            sketch.maximum = float(payload["max"])
        return sketch


#: Payload kinds that load.  A ``stat`` payload (written before there
#: was one sketch kind) carries only count / sum / min / max.
_KINDS = (QuantileSketch.kind, "stat")


def serialize_sketches(sketches: dict) -> dict:
    """``{name: sketch}`` → ``{name: payload}`` (registry storage shape)."""
    return {name: sketches[name].to_json() for name in sorted(sketches)}


def load_sketches(payload: dict) -> dict:
    """Inverse of :func:`serialize_sketches`, skipping a body that is
    not an object of a kind that loads, or is damaged (forward compat)."""
    sketches = {}
    for name, body in payload.items():
        if not isinstance(body, dict) or body.get("kind") not in _KINDS:
            continue
        try:
            sketches[name] = QuantileSketch.from_json(body)
        except (KeyError, TypeError, ValueError):
            continue
    return sketches


class SketchRecorder:
    """Folds a run's wide events into per-phase sketches.

    Hand :meth:`feed_wide` to a wide-event builder's ``sinks``: it
    folds every chunk record's phase latencies into ``wide.<field>``
    sketches and the staged-before-fetch indicator into
    ``wide.ready_before_fetch`` (whose mean is the SLO engine's
    ``ready_before_fetch_ratio``).  A pure fold: fixed-seed runs
    serialize identically.
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
    """Offline fold: wide-event records → the sketch set a live
    :class:`SketchRecorder` sink folds from the same records."""
    recorder = SketchRecorder()
    for record in records:
        recorder.feed_wide(record)
    return recorder.sketches
