"""A trace in the format before ``LinkStateChanged``,
``LinkRetransmission`` and ``PrestageSignalled`` were deleted and
``PacketDropped`` lost its ``reason`` still reads.

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
from repro.obs.events import PacketDropped
from repro.obs.trace import read_trace
from repro.obs.wide import derive_wide
from repro.util import MB

HERE = Path(__file__).resolve().parent
OLDER = HERE / "older_trace.jsonl"
OLDER_WIDE = HERE / "older_trace_wide.jsonl"
DELETED = {"LinkStateChanged": 5, "LinkRetransmission": 4,
           "PrestageSignalled": 1}


def _read_older():
    skipped = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stream = list(read_trace(str(OLDER), unknown_counts=skipped))
    return stream, skipped, [str(w.message) for w in caught]


def test_deleted_types_are_skipped_and_counted_and_reason_dropped_once():
    stream, skipped, messages = _read_older()
    assert skipped == DELETED
    assert [m for m in messages if "reason" in m] == [
        "dropping unknown field(s) ['reason'] on PacketDropped "
        "(trace written by another version?)"]
    assert len(messages) == len(DELETED) + 1
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


def test_the_same_run_traced_now_derives_the_same_records():
    coverage = overlapping_coverage(["ap-A", "ap-B"], encounter_time=3.0,
                                    overlap_time=1.5, total_time=3600.0)
    buffer = io.StringIO()
    run_download("softstage",
                 params=MicrobenchParams(file_size=4 * MB, encounter_time=3.0),
                 seed=0, coverage=coverage, handoff_policy=ChunkAwarePolicy(),
                 trace_path=buffer)
    now = list(read_trace(io.StringIO(buffer.getvalue()), strict=True))
    assert derive_wide(now) == derive_wide(_read_older()[0])
