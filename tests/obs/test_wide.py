"""Wide events: the record view of the lifecycle fold, byte parity, schema."""

import io
import json

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs import events as ev
from repro.obs.analyze import latency_breakdown
from repro.obs.bus import Stamped
from repro.obs.trace import read_trace
from repro.obs.wide import (
    WIDE_SCHEMA_VERSION,
    WideEventBuilder,
    WideEventStream,
    WideEventWriter,
    derive_wide,
    policy_from_run_id,
    read_wide,
    run_id_for,
    wide_json,
)
from repro.util import MB


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One instrumented SoftStage run: a trace plus live wide events."""
    directory = tmp_path_factory.mktemp("wide")
    trace = str(directory / "trace.jsonl")
    wide = str(directory / "wide.jsonl")
    result = run_download(
        "softstage", params=MicrobenchParams(file_size=2 * MB), seed=0,
        gauges=True, trace_path=trace, wide=wide,
    )
    return result, trace, wide


# ---------------------------------------------------------------------------
# The headline property: live == offline, byte for byte
# ---------------------------------------------------------------------------


def test_offline_derivation_is_byte_identical_to_live(live):
    _result, trace, wide = live
    offline = derive_wide(read_trace(trace))
    derived = "".join(wide_json(r) + "\n" for r in offline)
    with open(wide, encoding="utf-8") as fh:
        assert fh.read() == derived


def test_live_records_match_the_emit_file(live):
    result, _trace, wide = live
    on_disk = list(read_wide(wide))
    assert result.wide_records == on_disk


# ---------------------------------------------------------------------------
# Record content from a real run
# ---------------------------------------------------------------------------


def test_chunk_records_capture_the_lifecycle(live):
    result, _trace, wide = live
    records = list(read_wide(wide))
    chunks = [r for r in records if r["kind"] == "chunk"]
    assert chunks, "a softstage run must deliver chunk wide events"
    for record in chunks:
        assert record["schema"] == WIDE_SCHEMA_VERSION
        assert record["run"] == "softstage-seed0"
        assert record["policy"] == ""
        assert record["source"] in {"edge", "origin", "fallback"}
        assert record["t_fetched"] >= record["t_fetch_start"]
        assert record["fetch_latency"] >= 0.0
        # The flight recorder ran, so gauge context is present.
        assert record["lead_bytes"] is not None
    # seq numbers the run's records densely, in emission order.
    assert [r["seq"] for r in records] == list(range(len(records)))


def test_run_summary_is_last_and_agrees_with_the_download(live):
    result, _trace, wide = live
    records = list(read_wide(wide))
    summary = records[-1]
    assert summary["kind"] == "run"
    assert summary["chunks"] == result.download.chunks_completed
    assert summary["chunks_edge"] == result.download.chunks_from_edge
    assert summary["events"] > 0
    assert summary["chunks_open"] == 0


# ---------------------------------------------------------------------------
# Policy derivation (from the run id — never out-of-band)
# ---------------------------------------------------------------------------


def test_policy_from_run_id():
    assert policy_from_run_id("softstage-seed0") == ""
    assert policy_from_run_id("softstage-rich-seed0") == "rich"
    assert policy_from_run_id("softstage-mobility-aware-seed3") == (
        "mobility-aware"
    )
    assert policy_from_run_id("whatever") == ""
    assert policy_from_run_id("") == ""


def test_run_id_round_trips_for_every_registered_policy():
    from repro.core.policy import available_policies

    assert run_id_for("xftp", 3) == "xftp-seed3"
    assert run_id_for("softstage", 0, "rich") == "softstage-rich-seed0"
    for policy in ("", *available_policies()):
        for seed in (0, 12):
            run_id = run_id_for("softstage", seed, policy)
            assert policy_from_run_id(run_id) == policy
            # A traced sweep's per-point prefix does not hide it either.
            assert policy_from_run_id(f"12s/{run_id}") == policy


def test_policy_stamped_on_every_record():
    records = []
    builder = WideEventBuilder(
        run_id="softstage-rich-seed0", sinks=[records.append]
    )
    builder.feed(Stamped(1.0, "softstage-rich-seed0",
                         ev.HandoffCompleted(target="edge-B", duration=0.2)))
    builder.finish()
    assert [r["kind"] for r in records] == ["handoff", "run"]
    assert all(r["policy"] == "rich" for r in records)


# ---------------------------------------------------------------------------
# The fold itself (synthetic streams)
# ---------------------------------------------------------------------------


def _chunk_events(run_id, cid, t0=1.0):
    return [
        Stamped(t0, run_id,
                ev.StagingSignalled(count=1, label="eq1", cids=cid)),
        Stamped(t0 + 0.1, run_id,
                ev.StageRequestReceived(vnf="vnf-A", cids=cid)),
        Stamped(t0 + 0.5, run_id,
                ev.VnfStageCompleted(vnf="vnf-A", cid=cid, latency=0.4)),
        Stamped(t0 + 0.6, run_id,
                ev.ChunkStaged(cid=cid, staging_latency=0.6,
                               control_rtt=0.05)),
        Stamped(t0 + 2.0, run_id,
                ev.ChunkFetched(cid=cid, latency=0.3, from_edge=True,
                                fallback=False)),
    ]


def test_chunk_fold_joins_all_phases():
    records = []
    builder = WideEventBuilder(run_id="r", sinks=[records.append])
    for stamped in _chunk_events("r", "cid-1"):
        builder.feed(stamped)
    (chunk,) = [r for r in records if r["kind"] == "chunk"]
    assert chunk["t_signalled"] == 1.0
    assert chunk["t_stage_request"] == 1.1
    assert chunk["t_staged"] == 1.5
    assert chunk["t_ready"] == 1.6
    assert chunk["t_fetch_start"] == pytest.approx(2.7)
    assert chunk["stage_wait_s"] == pytest.approx(0.5)
    assert chunk["ready_wait_s"] == pytest.approx(1.1)
    assert chunk["source"] == "edge"
    assert chunk["vnf"] == "vnf-A"
    assert chunk["signal_label"] == "eq1"
    assert chunk["control_rtt"] == 0.05


def test_re_signals_and_gap_masking_are_attributed():
    records = []
    builder = WideEventBuilder(run_id="r", sinks=[records.append])
    cid = "cid-1"
    builder.feed(Stamped(1.0, "r",
                         ev.StagingSignalled(count=1, label="eq1", cids=cid)))
    builder.feed(Stamped(2.0, "r",
                         ev.StagingSignalled(count=1, label="eq1", cids=cid)))
    # A 3 s coverage gap [3, 6] inside the chunk's lifecycle [1, 8].
    builder.feed(Stamped(6.0, "r", ev.CoverageGap(duration=3.0)))
    builder.feed(Stamped(8.0, "r",
                         ev.ChunkFetched(cid=cid, latency=0.5, from_edge=True,
                                         fallback=False)))
    builder.finish()
    gap = next(r for r in records if r["kind"] == "gap")
    chunk = next(r for r in records if r["kind"] == "chunk")
    summary = records[-1]
    assert gap["duration_s"] == 3.0
    assert chunk["re_signals"] == 1
    assert chunk["masked_s"] == pytest.approx(3.0)
    assert summary["masked_total_s"] == pytest.approx(3.0)
    assert summary["re_signals"] == 1
    assert summary["gap_time_s"] == 3.0


def test_handoff_updates_the_current_network():
    records = []
    builder = WideEventBuilder(run_id="r", sinks=[records.append])
    builder.feed(Stamped(1.0, "r",
                         ev.HandoffCompleted(target="edge-B", duration=0.2)))
    for stamped in _chunk_events("r", "cid-1", t0=2.0):
        builder.feed(stamped)
    handoff = records[0]
    chunk = records[1]
    assert handoff["kind"] == "handoff"
    assert handoff["target"] == "edge-B"
    assert handoff["from_network"] == ""
    assert handoff["status"] == "completed"
    assert chunk["network"] == "edge-B"


# ---------------------------------------------------------------------------
# One fold, two views: where the span view and the record deliberately differ
# ---------------------------------------------------------------------------


def _fold(events, run_id="r"):
    """Feed ``(time, event)`` pairs; the builder and its records."""
    records = []
    builder = WideEventBuilder(run_id=run_id, sinks=[records.append])
    for t, event in events:
        builder.feed(Stamped(t, run_id, event))
    builder.finish()
    return builder, records


def test_restaged_chunk_span_reads_first_staged_record_reads_last():
    cid = "cid-1"
    builder, records = _fold([
        (1.0, ev.StagingSignalled(count=1, label="eq1", cids=cid)),
        (2.0, ev.VnfStageCompleted(vnf="vnf-A", cid=cid, latency=1.0)),
        (3.0, ev.StagingSignalled(count=1, label="re-signal", cids=cid)),
        (4.5, ev.VnfStageCompleted(vnf="vnf-B", cid=cid, latency=1.5)),
        (6.0, ev.ChunkFetched(cid=cid, latency=0.5, from_edge=True,
                              fallback=False)),
    ])
    (span,) = builder.spans
    (chunk, _run) = records
    assert [t for name, t in span.phases if name == "staged"] == [2.0, 4.5]
    assert span.phase_time("staged") == 2.0
    assert chunk["t_staged"] == 4.5
    assert chunk["stage_wait_s"] == pytest.approx(3.5)
    (row,) = latency_breakdown(builder.spans)
    assert row.stage_wait == pytest.approx(1.0)
    # Attributes are last-writer-wins in both views.
    assert span.attrs["vnf"] == chunk["vnf"] == "vnf-B"
    assert span.attrs["stage_latency"] == chunk["stage_latency"] == 1.5


def test_restaged_chunk_cached_twice_keeps_both_marks_and_the_last_time():
    cid = "cid-1"
    builder, records = _fold([
        (1.0, ev.StagingSignalled(count=1, label="eq1", cids=cid)),
        (2.0, ev.CacheStored(store="edge-A", cid=cid, size_bytes=4)),
        (5.0, ev.CacheStored(store="edge-B", cid=cid, size_bytes=4)),
        (6.0, ev.ChunkFetched(cid=cid, latency=0.5, from_edge=True,
                              fallback=False)),
        # Delivered: a later store for the same cid opens nothing.
        (7.0, ev.CacheStored(store="edge-C", cid=cid, size_bytes=4)),
    ])
    (span,) = builder.spans
    assert [t for name, t in span.phases if name == "cached"] == [2.0, 5.0]
    assert span.phase_time("cached") == 2.0
    assert records[0]["t_cached"] == 5.0
    assert span.attrs["cache_store"] == records[0]["cache_store"] == "edge-B"


def test_repeated_handoff_start_leaves_the_first_span_joining():
    builder, records = _fold([
        (1.0, ev.HandoffStarted(target="net2")),
        (2.0, ev.HandoffStarted(target="net2")),
        (2.5, ev.HandoffCompleted(target="net2", duration=0.5)),
    ])
    first, second = builder.spans
    assert (first.status, first.end) == ("joining", None)
    assert (second.status, second.start, second.end) == ("completed", 2.0, 2.5)
    (handoff, run) = records
    assert (handoff["t_start"], handoff["t_end"]) == (2.0, 2.5)
    assert run["handoffs_completed"] == 1


def test_handoff_records_number_by_close_order_spans_by_open_order():
    builder, records = _fold([
        (1.0, ev.HandoffStarted(target="net2")),
        (1.2, ev.HandoffDeferred(target="net3")),
        (1.5, ev.HandoffCompleted(target="net2", duration=0.5)),
    ])
    assert [(s.span_id, s.key, s.status) for s in builder.spans] == [
        (1, "net2", "completed"), (2, "net3", "deferred"),
    ]
    assert [(r["key"], r["target"], r["from_network"])
            for r in records if r["kind"] == "handoff"] == [
        ("ho1", "net3", ""), ("ho2", "net2", ""),
    ]
    assert records[-1]["network"] == "net2"
    assert records[-1]["handoffs_deferred"] == 1


def test_masked_time_is_two_numbers_over_two_intervals():
    # Gap [2, 5]; signalled 1, staged 3, fetched 8.  The record masks
    # the whole lifecycle [1, 8]; the breakdown only [signalled, staged].
    cid = "cid-1"
    builder, records = _fold([
        (1.0, ev.StagingSignalled(count=1, label="eq1", cids=cid)),
        (3.0, ev.VnfStageCompleted(vnf="vnf-A", cid=cid, latency=2.0)),
        (5.0, ev.CoverageGap(duration=3.0)),
        (8.0, ev.ChunkFetched(cid=cid, latency=0.5, from_edge=True,
                              fallback=False)),
    ])
    chunk = next(r for r in records if r["kind"] == "chunk")
    assert chunk["masked_s"] == pytest.approx(3.0)
    (row,) = latency_breakdown(builder.spans)
    assert row.masked == pytest.approx(1.0)


def test_run_totals_count_open_chunks_too():
    builder, records = _fold([
        (1.0, ev.StagingSignalled(count=2, label="eq1", cids="c1,c2")),
        (2.0, ev.StagingSignalled(count=1, label="re-signal", cids="c2")),
        (2.5, ev.VnfStageFailed(vnf="vnf-A", cid="c2")),
        (3.0, ev.ChunkFetched(cid="c1", latency=0.5, from_edge=False,
                              fallback=True)),
        (4.0, ev.ChunkFetched(cid="c9", latency=0.5, from_edge=False,
                              fallback=False)),
    ])
    run = records[-1]
    assert (run["chunks"], run["chunks_open"]) == (2, 1)
    assert (run["chunks_fallback"], run["chunks_origin"]) == (1, 1)
    assert (run["re_signals"], run["stage_failures"]) == (1, 1)
    assert [s.key for s in builder.spans if s.end is None] == ["c2"]


# ---------------------------------------------------------------------------
# Multi-run streams (the demo's shared trace file)
# ---------------------------------------------------------------------------


def _handoff(run_id, t):
    return Stamped(t, run_id, ev.HandoffCompleted(target="e", duration=0.1))


def test_stream_finishes_each_run_where_a_live_pipeline_would():
    records = []
    stream = WideEventStream(sinks=[records.append])
    stream.feed(_handoff("run-a", 1.0))
    stream.feed(_handoff("run-b", 2.0))  # run-a ends here, mid-file
    stream.finish()
    assert [(r["run"], r["kind"]) for r in records] == [
        ("run-a", "handoff"), ("run-a", "run"),
        ("run-b", "handoff"), ("run-b", "run"),
    ]
    # Each run's seq restarts — records are per-run, not per-file.
    assert [r["seq"] for r in records] == [0, 1, 0, 1]


def test_derive_wide_run_filter_selects_one_run():
    stampeds = [_handoff("run-a", 1.0), _handoff("run-b", 2.0)]
    records = derive_wide(stampeds, run_id="run-b")
    assert {r["run"] for r in records} == {"run-b"}


# ---------------------------------------------------------------------------
# Writer, reader, and the forward-compat rule
# ---------------------------------------------------------------------------


def test_writer_reader_round_trip_preserves_unknown_keys(tmp_path):
    path = str(tmp_path / "wide.jsonl")
    record = {"kind": "chunk", "schema": WIDE_SCHEMA_VERSION,
              "run": "r", "seq": 0, "future_key": {"x": [1, 2]}}
    with WideEventWriter(path) as writer:
        writer.write(record)
    assert writer.records_written == 1
    assert writer.path == path
    (loaded,) = read_wide(path)
    assert loaded["future_key"] == {"x": [1, 2]}
    # Rewriting through the canonical serializer loses nothing.
    assert json.loads(wide_json(loaded)) == record


def test_writer_borrows_file_objects_without_closing_them():
    sink = io.StringIO()
    writer = WideEventWriter(sink)
    writer.write({"kind": "run", "seq": 0})
    writer.close()
    assert writer.path is None
    assert not sink.closed
    assert sink.getvalue() == wide_json({"kind": "run", "seq": 0}) + "\n"


def test_builder_skips_other_runs_and_finish_is_idempotent():
    records = []
    builder = WideEventBuilder(run_id="mine", sinks=[records.append])
    builder.feed(_handoff("other", 1.0))
    assert builder.events_seen == 0
    assert builder.finish() == 1
    assert builder.finish() == 1  # no second summary
    assert [r["kind"] for r in records] == ["run"]
