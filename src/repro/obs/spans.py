"""Causal spans: the interval view of the lifecycle fold.

A JSONL trace (or a live bus subscription) is a flat, time-ordered
stream of typed events.  The lifecycle fold
(:class:`repro.obs.wide.WideEventBuilder`) turns it into *spans* —
typed intervals with a begin, an end, a lifecycle phase timeline and
parent links — so per-chunk questions ("how long did this chunk wait
between being signalled and being staged?  was it fetched from the
edge or did it fall back to the origin?") become first-class queries
instead of ad-hoc stream scans.  This module holds the span model and
its summaries; the fold that fills it (and projects each closing span
into a wide record) lives in :mod:`repro.obs.wide`.

Span kinds:

``chunk``
    One chunk's staging-and-delivery lifecycle.  Opens at the first
    :class:`~repro.obs.events.StagingSignalled` naming the chunk (or,
    for never-signalled chunks, retroactively at fetch start) and
    closes at :class:`~repro.obs.events.ChunkFetched`.  The phase
    timeline records ``signalled → stage_request → staged → ready →
    cached → fetched`` (plus ``re-signalled``, ``stage_failed`` and
    ``stale_response`` marks).  ``status`` ends as ``edge``,
    ``origin`` or ``fallback``; spans still open at stream end keep
    ``status="staging"`` and ``end=None``.
``encounter``
    One attachment period, derived retroactively from
    :class:`~repro.obs.events.EncounterEnded` (interval
    ``[t - duration, t]``).
``gap``
    One disconnection period, from
    :class:`~repro.obs.events.CoverageGap` the same way.
``handoff``
    :class:`~repro.obs.events.HandoffStarted` →
    :class:`~repro.obs.events.HandoffCompleted` (``status=
    "completed"``), or an instantaneous ``status="deferred"`` span
    for :class:`~repro.obs.events.HandoffDeferred`.

Parent links: after the stream ends (the fold's ``finish()``) each
closed chunk span is nested under the ``encounter`` span whose
interval contains its fetch-completion time — "the encounter the
chunk was delivered in".  Chunks fetched during the final (never-
ended) encounter keep ``parent_id=None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Span kinds (also the Chrome-trace lanes, see ``repro.obs.analyze``).
CHUNK = "chunk"
ENCOUNTER = "encounter"
GAP = "gap"
HANDOFF = "handoff"


@dataclass
class Span:
    """One derived interval: kind + key + phase timeline + parentage."""

    span_id: int
    kind: str
    key: str
    run_id: str
    start: float
    end: Optional[float] = None
    status: str = "open"
    parent_id: Optional[int] = None
    #: Ordered ``(phase_name, time)`` lifecycle marks.
    phases: list[tuple[str, float]] = field(default_factory=list)
    #: JSON-primitive annotations (fetch latency, VNF name, ...).
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def phase_time(self, name: str) -> Optional[float]:
        """Time of the first occurrence of phase ``name``, if any."""
        for phase, time in self.phases:
            if phase == name:
                return time
        return None

    def mark(self, name: str, time: float) -> None:
        self.phases.append((name, time))

    def to_dict(self) -> dict[str, object]:
        """A JSON-serialisable snapshot (deterministic key order)."""
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "key": self.key,
            "run": self.run_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "parent_id": self.parent_id,
            "phases": [list(p) for p in self.phases],
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    def __repr__(self) -> str:
        dur = f"{self.duration:.3f}s" if self.end is not None else "open"
        return f"<Span #{self.span_id} {self.kind}:{self.key} {dur} {self.status}>"


def overlap(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Total overlap of ``[start, end]`` with a list of intervals."""
    return sum(
        max(0.0, min(end, hi) - max(start, lo)) for lo, hi in intervals
    )


# -- summaries ---------------------------------------------------------------


@dataclass(frozen=True)
class KindSummary:
    """Aggregate duration statistics for one span kind."""

    kind: str
    count: int
    closed: int
    total: float
    mean: float
    minimum: float
    maximum: float


def summarize_spans(spans: Iterable[Span]) -> list[KindSummary]:
    """Per-kind count/duration statistics, sorted by kind name."""
    by_kind: dict[str, list[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.kind, []).append(span)
    out = []
    for kind in sorted(by_kind):
        group = by_kind[kind]
        durations = [s.duration for s in group if s.duration is not None]
        out.append(
            KindSummary(
                kind=kind,
                count=len(group),
                closed=len(durations),
                total=sum(durations),
                mean=sum(durations) / len(durations) if durations else 0.0,
                minimum=min(durations) if durations else 0.0,
                maximum=max(durations) if durations else 0.0,
            )
        )
    return out


def render_summary(spans: Iterable[Span], title: str = "Span summary") -> str:
    """A fixed-format span-summary table.

    Byte-deterministic for a given span list: the live/offline parity
    tests compare these strings for equality.
    """
    spans = list(spans)
    statuses: dict[str, dict[str, int]] = {}
    for span in spans:
        kind_statuses = statuses.setdefault(span.kind, {})
        kind_statuses[span.status] = kind_statuses.get(span.status, 0) + 1
    lines = [title]
    header = (
        f"{'kind':>10} | {'count':>6} | {'closed':>6} | {'total (s)':>10} | "
        f"{'mean (s)':>10} | {'min (s)':>10} | {'max (s)':>10}"
    )
    rule = "-" * len(header)
    lines += [rule, header, rule]
    for s in summarize_spans(spans):
        lines.append(
            f"{s.kind:>10} | {s.count:>6} | {s.closed:>6} | {s.total:>10.4f} | "
            f"{s.mean:>10.4f} | {s.minimum:>10.4f} | {s.maximum:>10.4f}"
        )
    lines.append(rule)
    for kind in sorted(statuses):
        breakdown = ", ".join(
            f"{status}={n}" for status, n in sorted(statuses[kind].items())
        )
        lines.append(f"{kind:>10}: {breakdown}")
    return "\n".join(lines)
