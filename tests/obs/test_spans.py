"""The span view of the lifecycle fold: variants, parents, parity."""

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs import Stamped, read_trace
from repro.obs.events import (
    CacheStored,
    ChunkFetched,
    ChunkStaged,
    CoverageGap,
    EncounterEnded,
    HandoffCompleted,
    HandoffDeferred,
    HandoffStarted,
    StageRequestReceived,
    StagingSignalled,
    StaleStagingResponse,
    VnfStageCompleted,
    VnfStageFailed,
)
from repro.obs.spans import render_summary
from repro.obs.wide import WideEventBuilder, build_spans
from repro.util import MB


def stamp(t, event, run="r0"):
    return Stamped(t, run, event)


def spans_of(stampeds, **kw):
    return build_spans(stampeds, **kw)


# -- chunk lifecycle ---------------------------------------------------------


def test_full_edge_lifecycle_produces_one_chunk_span():
    spans = spans_of([
        stamp(1.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
        stamp(1.2, StageRequestReceived(vnf="edge1", cids="c1,c2")),
        stamp(2.0, VnfStageCompleted(vnf="edge1", cid="c1", latency=0.8)),
        stamp(2.0, CacheStored(store="edge1", cid="c1", size_bytes=4)),
        stamp(2.3, ChunkStaged(cid="c1", staging_latency=0.8, control_rtt=0.5)),
        stamp(3.0, ChunkFetched(cid="c1", latency=0.4, from_edge=True, fallback=False)),
    ])
    chunk = next(s for s in spans if s.kind == "chunk" and s.key == "c1")
    assert chunk.start == 1.0 and chunk.end == 3.0
    assert chunk.status == "edge"
    assert [name for name, _ in chunk.phases] == [
        "signalled", "stage_request", "staged", "cached", "ready", "fetched",
    ]
    assert chunk.attrs["vnf"] == "edge1"
    assert chunk.attrs["stage_latency"] == 0.8
    assert chunk.attrs["fetch_start"] == pytest.approx(2.6)
    # c2 was signalled but never delivered: still open.
    other = next(s for s in spans if s.key == "c2")
    assert other.end is None and other.status == "staging"


def test_origin_fallback_and_unsignalled_variants():
    spans = spans_of([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(0.5, VnfStageFailed(vnf="edge1", cid="c1")),
        stamp(4.0, ChunkFetched(cid="c1", latency=3.0, from_edge=False, fallback=True)),
        # Never signalled: span opens retroactively at fetch start.
        stamp(9.0, ChunkFetched(cid="c9", latency=2.0, from_edge=False, fallback=False)),
    ])
    c1 = next(s for s in spans if s.key == "c1")
    assert c1.status == "fallback"
    assert c1.phase_time("stage_failed") == 0.5
    c9 = next(s for s in spans if s.key == "c9")
    assert c9.status == "origin"
    assert c9.start == 7.0 and c9.end == 9.0


def test_re_signal_and_stale_response_marks():
    spans = spans_of([
        stamp(0.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(5.0, StagingSignalled(count=1, label="re-signal", cids="c1")),
        stamp(6.0, StaleStagingResponse(cid="c1")),
    ])
    (c1,) = [s for s in spans if s.key == "c1"]
    assert c1.attrs["re_signals"] == 1
    assert c1.attrs["stale_responses"] == 1
    assert c1.phase_time("re-signalled") == 5.0


def test_cache_stored_never_opens_a_span():
    # Origin-side publishes at t=0 must not look like staging.
    spans = spans_of([
        stamp(0.0, CacheStored(store="origin", cid="c1", size_bytes=4)),
    ])
    assert spans == []


# -- encounters, gaps, handoffs ---------------------------------------------


def test_encounter_and_gap_spans_are_retroactive_intervals():
    spans = spans_of([
        stamp(12.0, EncounterEnded(duration=12.0)),
        stamp(20.0, CoverageGap(duration=8.0)),
    ])
    enc = next(s for s in spans if s.kind == "encounter")
    gap = next(s for s in spans if s.kind == "gap")
    assert (enc.start, enc.end) == (0.0, 12.0)
    assert (gap.start, gap.end) == (12.0, 20.0)
    assert gap.status == "offline"


def test_handoff_span_variants():
    spans = spans_of([
        stamp(1.0, HandoffDeferred(target="net2")),
        stamp(2.0, HandoffStarted(target="net2")),
        stamp(2.5, HandoffCompleted(target="net2", duration=0.5)),
    ])
    deferred, executed = [s for s in spans if s.kind == "handoff"]
    assert deferred.status == "deferred" and deferred.duration == 0.0
    assert executed.status == "completed"
    assert executed.start == 2.0 and executed.end == 2.5
    assert executed.attrs["join_duration"] == 0.5


def test_chunk_nests_under_delivering_encounter():
    spans = spans_of([
        stamp(1.0, StagingSignalled(count=2, label="eq1", cids="c1,c2")),
        stamp(3.0, ChunkFetched(cid="c1", latency=1.0, from_edge=True, fallback=False)),
        stamp(5.0, EncounterEnded(duration=5.0)),       # [0, 5]
        stamp(30.0, ChunkFetched(cid="c2", latency=1.0, from_edge=True, fallback=False)),
    ])
    enc = next(s for s in spans if s.kind == "encounter")
    c1 = next(s for s in spans if s.key == "c1")
    c2 = next(s for s in spans if s.key == "c2")
    assert c1.parent_id == enc.span_id
    assert c2.parent_id is None  # delivered after the last ended encounter


# -- builder mechanics -------------------------------------------------------


def test_builder_adopts_first_run_and_skips_others():
    builder = WideEventBuilder()
    builder.feed(stamp(1.0, HandoffDeferred(target="a"), run="runA"))
    builder.feed(stamp(2.0, HandoffDeferred(target="b"), run="runB"))
    builder.finish()
    assert builder.run_id == "runA"
    assert builder.events_seen == 1
    assert [s.key for s in builder.spans] == ["a"]


def test_finish_is_idempotent():
    builder = WideEventBuilder()
    builder.feed(stamp(1.0, HandoffDeferred(target="a")))
    builder.finish()
    first = [s.to_dict() for s in builder.spans]
    builder.finish()
    assert [s.to_dict() for s in builder.spans] == first


def test_span_to_dict_is_json_friendly():
    import json

    spans = spans_of([
        stamp(1.0, StagingSignalled(count=1, label="eq1", cids="c1")),
        stamp(2.0, ChunkFetched(cid="c1", latency=0.5, from_edge=True, fallback=False)),
    ])
    payload = json.dumps([s.to_dict() for s in spans])
    assert json.loads(payload)[0]["kind"] == "chunk"


# -- live/offline parity (the headline guarantee) ---------------------------

PARAMS = MicrobenchParams(file_size=4 * MB, chunk_size=1 * MB, packet_loss=0.05)


@pytest.mark.parametrize("system", ["softstage", "xftp"])
def test_offline_span_derivation_equals_live(system, tmp_path):
    trace = tmp_path / f"{system}.jsonl"
    result = run_download(
        system, params=PARAMS, seed=0, trace_path=str(trace), spans=True,
    )
    live = result.spans
    offline = build_spans(read_trace(str(trace)), run_id=result.run_id)
    assert [s.to_dict() for s in offline] == [s.to_dict() for s in live]
    # The rendered summaries must be byte-identical.
    assert render_summary(offline) == render_summary(live)
    if system == "softstage":
        assert any(s.kind == "chunk" for s in live)


def test_offline_derivation_is_deterministic(tmp_path):
    trace = tmp_path / "det.jsonl"
    result = run_download(
        "softstage", params=PARAMS, seed=1, trace_path=str(trace),
    )
    first = build_spans(read_trace(str(trace)), run_id=result.run_id)
    second = build_spans(read_trace(str(trace)), run_id=result.run_id)
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]
