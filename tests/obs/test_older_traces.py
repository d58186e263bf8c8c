"""A trace in the format before ``LinkStateChanged``,
``LinkRetransmission`` and ``PrestageSignalled`` were deleted,
``PacketDropped`` lost its ``reason`` and ``CoordinatorTick`` and
``SegmentTimeout`` became run totals still reads, and replays to the
report it replayed to then.

``older_trace.jsonl`` is a 4 MB chunk-aware SoftStage run (seed 0, two
overlapping 3 s encounters) written in that format, with one
``PrestageSignalled`` line added after the first deferred handoff (the
run pre-staged nothing); ``older_trace_wide.jsonl`` is what ``repro
trace wide`` derived from it then.
"""

import io
import json
import warnings
from pathlib import Path

from repro.core.handoff import ChunkAwarePolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.mobility.coverage import overlapping_coverage
from repro.obs.events import CoordinatorTick, PacketDropped, SegmentTimeout
from repro.obs.trace import read_trace, replay_trace
from repro.obs.wide import derive_wide
from repro.util import MB

HERE = Path(__file__).resolve().parent
OLDER = HERE / "older_trace.jsonl"
OLDER_WIDE = HERE / "older_trace_wide.jsonl"
DELETED = {"LinkStateChanged": 5, "LinkRetransmission": 4,
           "PrestageSignalled": 1}
#: Type -> the fields its lines carry that the type no longer has.
DROPPED_FIELDS = {
    "PacketDropped": ["reason"],
    "CoordinatorTick": ["offline", "signalled"],
    "SegmentTimeout": ["rto", "seq"],
    "CacheStored": ["pinned"],
    "StageRequestReceived": ["chunks"],
}
#: What ``replay_trace`` made of the file before any of those changes.
REPORT_THEN = {
    "handoff.executed": 3.0, "coordinator.ticks": 26.0,
    "staging.chunks_signalled": 2.0, "coordinator.decisions": 1.0,
    "transport.timeouts": 5.0, "coverage.encounters": 2.0,
    "transport.retransmissions": 26.0, "handoff.duration.mean": 0.0,
    "handoff.duration.min": 0.0, "handoff.duration.max": 0.0,
    "staging.latency.mean": 0.582595192,
    "staging.latency.min": 0.582589136,
    "staging.latency.max": 0.582601248,
    "fetch.latency.mean": 3.2407953652307904,
    "fetch.latency.min": 2.196408107692447,
    "fetch.latency.max": 4.285182622769134,
}


def _read_older():
    skipped = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = list(read_trace(str(OLDER), unknown_counts=skipped))
    return stream, skipped, [str(w.message) for w in caught]


def test_deleted_types_are_skipped_and_counted_and_reason_dropped_once():
    stream, skipped, messages = _read_older()
    assert skipped == DELETED
    assert sorted(m for m in messages if m.startswith("dropping")) == sorted(
        f"dropping unknown field(s) {names} on {name} "
        "(trace written by another version?)"
        for name, names in DROPPED_FIELDS.items())
    assert len(messages) == len(DELETED) + len(DROPPED_FIELDS)
    lines = OLDER.read_text(encoding="utf-8").splitlines()
    assert len(stream) == len(lines) - sum(DELETED.values())
    drops = [s.event for s in stream if type(s.event) is PacketDropped]
    assert drops == [
        PacketDropped(link=record["link"], count=record["count"])
        for record in map(json.loads, lines)
        if record["type"] == "PacketDropped"
    ]


def test_the_wide_records_are_the_ones_derived_then():
    """Every record, spans and ``dropped_packets`` included, as derived
    before; the run record's ``events`` no longer counts the lines the
    reader skips."""
    stream, skipped, _ = _read_older()
    then = [json.loads(line) for line in
            OLDER_WIDE.read_text(encoding="utf-8").splitlines()]
    now = derive_wide(stream)
    assert then[-1]["dropped_packets"] == 48
    then[-1]["events"] -= sum(skipped.values())
    assert now == then


def test_the_report_is_the_one_replayed_then():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert replay_trace(str(OLDER)).report() == REPORT_THEN


def _rounds(stream):
    """Lines that were one per coordinator round or RTO expiry then."""
    return sum(type(s.event) in (CoordinatorTick, SegmentTimeout)
               for s in stream)


def test_the_same_run_traced_now_derives_the_same_records():
    """Same records and report; the run record's ``events`` counts the
    run totals where the older trace had one line per round and per
    expiry."""
    coverage = overlapping_coverage(["ap-A", "ap-B"], encounter_time=3.0,
                                    overlap_time=1.5, total_time=3600.0)
    buffer = io.StringIO()
    run_download("softstage",
                 params=MicrobenchParams(file_size=4 * MB, encounter_time=3.0),
                 seed=0, coverage=coverage, handoff_policy=ChunkAwarePolicy(),
                 trace_path=buffer)
    now = list(read_trace(io.StringIO(buffer.getvalue()), strict=True))
    older = _read_older()[0]
    records, then = derive_wide(now), derive_wide(older)
    assert (then[-1]["events"] - _rounds(older)
            == records[-1]["events"] - _rounds(now))
    then[-1]["events"] = records[-1]["events"]
    assert records == then
    assert replay_trace(io.StringIO(buffer.getvalue())).report() == REPORT_THEN
