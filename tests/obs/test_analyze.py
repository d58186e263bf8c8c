"""Trace analysis: breakdowns, critical path, Chrome export, diffs."""

import io
import json

from repro.obs import Stamped
from repro.obs.analyze import (
    chrome_trace,
    critical_path,
    diff_spans,
    latency_breakdown,
    load_runs,
    pick_run,
    summarize_breakdown,
)
from repro.obs.events import (
    ChunkFetched,
    CoverageGap,
    StagingSignalled,
    VnfStageCompleted,
)
from repro.obs.wide import build_spans
from repro.obs.trace import EventBus, TraceExporter


def stamp(t, event, run="r0"):
    return Stamped(t, run, event)


LIFECYCLE = [
    stamp(0.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
    stamp(2.0, VnfStageCompleted(vnf="edge1", cid="c1", latency=1.5)),
    stamp(3.0, CoverageGap(duration=2.0)),  # offline over [1, 3]
    stamp(5.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False)),
    stamp(9.0, VnfStageCompleted(vnf="edge1", cid="c2", latency=1.0)),
    stamp(12.0, ChunkFetched(cid="c2", latency=3.0, from_edge=False, fallback=True)),
]


def trace_text(stampeds):
    bus = EventBus()
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    for s in stampeds:
        bus.publish(s)
    exporter.close()
    return buffer.getvalue()


def test_latency_breakdown_decomposes_phases():
    rows = latency_breakdown(build_spans(LIFECYCLE))
    by_cid = {r.cid: r for r in rows}
    c1 = by_cid["c1"]
    assert c1.source == "edge"
    assert c1.stage_wait == 2.0        # signalled 0.0 -> staged 2.0
    assert c1.fetch_time == 0.5
    # Staging interval [0, 2] overlaps the [1, 3] gap for one second.
    assert c1.masked == 1.0
    c2 = by_cid["c2"]
    assert c2.source == "fallback"
    assert c2.stage_wait == 9.0
    assert c2.masked == 2.0  # its [0, 9] staging covers the whole gap

    summary = summarize_breakdown(rows)
    assert summary.chunks == 2 and summary.edge == 1 and summary.fallback == 1
    assert summary.mean_edge_fetch == 0.5
    assert summary.mean_origin_fetch == 3.0
    assert summary.masked_total == 3.0


def test_critical_path_partitions_the_download():
    segments = critical_path(build_spans(LIFECYCLE))
    assert [s.cid for s in segments] == ["c1", "c2"]
    # c1 blocks from its span start (0.0) to its delivery (5.0)...
    assert (segments[0].start, segments[0].end) == (0.0, 5.0)
    # ...then c2 blocks until the download completes at 12.0.
    assert (segments[1].start, segments[1].end) == (5.0, 12.0)
    assert segments[1].phase == "stage_wait"  # c2's fetch began at 9.0
    # Segments cover the timeline with no overlap.
    assert segments[0].end == segments[1].start


def test_load_runs_splits_multi_run_traces():
    mixed = [
        stamp(1.0, ChunkFetched(cid="a", latency=1.0, from_edge=True, fallback=False), run="A"),
        stamp(1.0, ChunkFetched(cid="b", latency=0.5, from_edge=False, fallback=False), run="B"),
        stamp(2.0, ChunkFetched(cid="c", latency=1.0, from_edge=True, fallback=False), run="A"),
    ]
    runs = load_runs(io.StringIO(trace_text(mixed)))
    assert list(runs) == ["A", "B"]
    assert runs["A"].events_total == 2
    assert len(runs["A"].spans) == 2
    assert pick_run(runs).run_id == "A"
    assert pick_run(runs, "B").run_id == "B"


def test_chrome_trace_is_valid_trace_event_json():
    runs = load_runs(io.StringIO(trace_text(LIFECYCLE)))
    payload = chrome_trace(runs)
    # Round-trip through JSON like a real file would.
    payload = json.loads(json.dumps(payload))
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    complete = [e for e in events if e["ph"] == "X"]
    assert complete, "expected complete (ph=X) span events"
    for e in complete:
        assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(e)
        assert e["dur"] >= 0
    # c1's chunk span: [0, 5] seconds -> microseconds.
    c1 = next(e for e in complete if e["name"] == "chunk:c1")
    assert c1["ts"] == 0.0 and c1["dur"] == 5.0e6
    # Metadata names the run.
    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert meta[0]["args"]["name"] == "r0"


def test_diff_reports_per_kind_deltas():
    fast = build_spans([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(1.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False)),
    ])
    slow = build_spans([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(4.0, ChunkFetched(cid="c1", latency=3.0, from_edge=False, fallback=False)),
    ])
    (delta,) = diff_spans(fast, slow)
    assert delta.kind == "chunk"
    assert delta.count_a == delta.count_b == 1
    assert delta.mean_a == 1.0 and delta.mean_b == 4.0
    assert delta.delta == 3.0
    assert delta.ratio == 4.0
