"""Trace analysis: latency breakdowns, critical paths, export, diff.

Everything here is *offline*: it consumes a JSONL trace (possibly
holding several runs, told apart by their ``run`` ids) or pre-built
span lists, and produces plain data objects the CLI renders.  The
heavy lifting — folding events into spans — is the lifecycle fold in
:mod:`repro.obs.wide`; this module answers the questions the paper's
evaluation asks of those spans:

- *stage wait*: how long a chunk sat between being signalled and the
  VNF finishing its prefetch (Eq. 1's just-in-time window);
- *edge vs origin fetch time*: the delegation fast path against the
  origin fallback;
- *time masked by disconnection*: how much of the staging interval
  overlapped coverage gaps — staging work the vehicle never waited
  for, the paper's core claim;
- *critical path*: which chunk (and which of its phases) the download
  was blocked on, interval by interval;
- run-vs-run *diffs* (softstage vs xftp, seed A vs seed B);
- Chrome ``trace_event`` JSON so any trace opens in Perfetto or
  chrome://tracing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Optional, Union

from repro.obs.spans import (
    CHUNK,
    ENCOUNTER,
    GAP,
    HANDOFF,
    Span,
    overlap,
    summarize_spans,
)
from repro.obs.trace import read_trace
from repro.obs.wide import build_spans


# -- loading -----------------------------------------------------------------


@dataclass
class TraceRun:
    """One run's slice of a trace: its events' types and derived spans."""

    run_id: str
    event_counts: Counter
    spans: list[Span]
    first_time: float
    last_time: float

    @property
    def events_total(self) -> int:
        return sum(self.event_counts.values())


class TraceRuns(dict):
    """``{run id: TraceRun}`` in first-appearance order.  ``skipped``
    counts the records the reader could not use, by event type name
    (a torn final line under :data:`repro.obs.trace.TORN_LINE`)."""

    def __init__(self) -> None:
        super().__init__()
        self.skipped: dict[str, int] = {}


def load_runs(path_or_file: Union[str, IO[str]]) -> TraceRuns:
    """Split a (possibly multi-run) trace into per-run analyses.

    Unknown event types and a torn final line are skipped per
    :func:`repro.obs.trace.read_trace` semantics, and counted.
    """
    runs = TraceRuns()
    stampeds_by_run: dict[str, list] = {}
    for stamped in read_trace(path_or_file, unknown_counts=runs.skipped):
        stampeds_by_run.setdefault(stamped.run_id, []).append(stamped)
    for run_id, stampeds in stampeds_by_run.items():
        runs[run_id] = TraceRun(
            run_id=run_id,
            event_counts=Counter(type(s.event).__name__ for s in stampeds),
            spans=build_spans(stampeds, run_id=run_id),
            first_time=stampeds[0].time,
            last_time=stampeds[-1].time,
        )
    return runs


class RunNotInTrace(ValueError):
    """A trace holds no run of the id asked for; carries the id and the
    ids it does hold so a front door can word that its own way."""

    def __init__(self, run_id: str, run_ids: Iterable[str]) -> None:
        self.run_id = run_id
        self.run_ids = tuple(run_ids)
        super().__init__(
            f"run {run_id!r} not in trace (has: {', '.join(self.run_ids)})"
        )


def pick_run(runs: dict[str, TraceRun], run_id: Optional[str] = None) -> TraceRun:
    """Select one run: by id, or the only/first one."""
    if not runs:
        raise ValueError("trace contains no events")
    if run_id is None:
        return next(iter(runs.values()))
    try:
        return runs[run_id]
    except KeyError:
        raise RunNotInTrace(run_id, runs) from None


# -- latency breakdown -------------------------------------------------------


@dataclass(frozen=True)
class ChunkBreakdown:
    """Where one delivered chunk's wall time went."""

    cid: str
    source: str  # "edge" | "origin" | "fallback"
    #: signalled → VNF prefetch done (None when never signalled/staged).
    stage_wait: Optional[float]
    #: client fetch start → fetch complete.
    fetch_time: float
    #: part of the staging interval overlapping coverage gaps.
    masked: float
    total: float


def latency_breakdown(spans: Iterable[Span]) -> list[ChunkBreakdown]:
    """Per-delivered-chunk phase decomposition, in delivery order."""
    spans = list(spans)
    gaps = [(s.start, s.end) for s in spans if s.kind == GAP and s.end is not None]
    rows = []
    for span in spans:
        if span.kind != CHUNK or span.end is None:
            continue
        signalled = span.phase_time("signalled")
        staged = span.phase_time("staged")
        stage_wait = staged - signalled if signalled is not None and staged is not None else None
        masked = (
            overlap(signalled, staged, gaps)
            if signalled is not None and staged is not None
            else 0.0
        )
        rows.append(
            ChunkBreakdown(
                cid=span.key,
                source=span.status,
                stage_wait=stage_wait,
                fetch_time=float(span.attrs.get("fetch_latency", 0.0)),
                masked=masked,
                total=span.end - span.start,
            )
        )
    rows.sort(key=lambda r: r.cid)
    return rows


@dataclass(frozen=True)
class BreakdownSummary:
    """Aggregate of :func:`latency_breakdown` over one run."""

    chunks: int
    edge: int
    origin: int
    fallback: int
    mean_stage_wait: float
    mean_edge_fetch: float
    mean_origin_fetch: float
    masked_total: float


def summarize_breakdown(rows: Iterable[ChunkBreakdown]) -> BreakdownSummary:
    rows = list(rows)
    edge = [r for r in rows if r.source == "edge"]
    origin = [r for r in rows if r.source == "origin"]
    fallback = [r for r in rows if r.source == "fallback"]
    staged = [r.stage_wait for r in rows if r.stage_wait is not None]
    non_edge = origin + fallback

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return BreakdownSummary(
        chunks=len(rows),
        edge=len(edge),
        origin=len(origin),
        fallback=len(fallback),
        mean_stage_wait=mean(staged),
        mean_edge_fetch=mean([r.fetch_time for r in edge]),
        mean_origin_fetch=mean([r.fetch_time for r in non_edge]),
        masked_total=sum(r.masked for r in rows),
    )


# -- critical path -----------------------------------------------------------


@dataclass(frozen=True)
class CriticalSegment:
    """One blocking interval of the download timeline.

    Segments partition the time between the first chunk's start and
    the last chunk's delivery; each is attributed to the chunk whose
    completion ended it, labelled with the phase that chunk was in
    when the segment began (``fetch`` once its fetch had started,
    ``stage_wait`` while it was still being staged, ``idle`` when the
    chunk's span had not yet opened).
    """

    cid: str
    start: float
    end: float
    duration: float
    phase: str


def critical_path(spans: Iterable[Span]) -> list[CriticalSegment]:
    """The per-download blocking chain, over delivered chunk spans."""
    chunks = [s for s in spans if s.kind == CHUNK and s.end is not None]
    chunks.sort(key=lambda s: (s.end, s.span_id))
    segments = []
    cursor: Optional[float] = None
    for span in chunks:
        seg_start = span.start if cursor is None else cursor
        if span.end <= seg_start:
            cursor = max(cursor if cursor is not None else span.end, span.end)
            continue
        fetch_start = float(span.attrs.get("fetch_start", span.start))
        if seg_start >= fetch_start:
            phase = "fetch"
        elif seg_start >= span.start:
            phase = "stage_wait"
        else:
            phase = "idle"
        segments.append(
            CriticalSegment(
                cid=span.key,
                start=seg_start,
                end=span.end,
                duration=span.end - seg_start,
                phase=phase,
            )
        )
        cursor = span.end
    return segments


# -- Chrome trace-event export ----------------------------------------------

#: Stable lane (tid) per span kind in the Chrome view.
_KIND_TIDS = {CHUNK: 1, ENCOUNTER: 2, GAP: 3, HANDOFF: 4}


def chrome_trace(runs: dict[str, "TraceRun"]) -> dict:
    """Chrome ``trace_event`` JSON for one or more runs.

    Each run becomes a Chrome *process* (pid), each span kind a
    *thread* lane (tid) in it.  Closed spans are complete events
    (``ph="X"``); open spans become instants (``ph="i"``).  Times are
    microseconds, as the format requires.  The result loads directly
    in Perfetto / chrome://tracing.
    """
    events: list[dict] = []
    for pid, (run_id, run) in enumerate(runs.items(), start=1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": run_id},
            }
        )
        for kind, tid in sorted(_KIND_TIDS.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": kind},
                }
            )
        for span in run.spans:
            tid = _KIND_TIDS.get(span.kind, 9)
            args = {k: span.attrs[k] for k in sorted(span.attrs)}
            args["status"] = span.status
            args["phases"] = [f"{name}@{time:.6f}" for name, time in span.phases]
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            base = {
                "name": f"{span.kind}:{span.key}",
                "cat": span.kind,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
            if span.end is not None:
                events.append(
                    {
                        **base,
                        "ph": "X",
                        "ts": span.start * 1e6,
                        "dur": (span.end - span.start) * 1e6,
                    }
                )
            else:
                events.append(
                    {**base, "ph": "i", "ts": span.start * 1e6, "s": "t"}
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- run diffing -------------------------------------------------------------


@dataclass(frozen=True)
class KindDelta:
    """Span statistics of one kind, side by side across two runs."""

    kind: str
    count_a: int
    count_b: int
    mean_a: float
    mean_b: float

    @property
    def delta(self) -> float:
        return self.mean_b - self.mean_a

    @property
    def ratio(self) -> Optional[float]:
        return self.mean_b / self.mean_a if self.mean_a else None


def diff_spans(spans_a: Iterable[Span], spans_b: Iterable[Span]) -> list[KindDelta]:
    """Per-span-kind latency deltas between two runs (B relative to A)."""
    a = {s.kind: s for s in summarize_spans(spans_a)}
    b = {s.kind: s for s in summarize_spans(spans_b)}
    out = []
    for kind in sorted(set(a) | set(b)):
        sa, sb = a.get(kind), b.get(kind)
        out.append(
            KindDelta(
                kind=kind,
                count_a=sa.count if sa else 0,
                count_b=sb.count if sb else 0,
                mean_a=sa.mean if sa else 0.0,
                mean_b=sb.mean if sb else 0.0,
            )
        )
    return out
