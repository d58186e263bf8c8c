"""Drops and segment retransmissions are state, not events: a traced run
publishes one ``PacketDropped`` run total per link direction (the sum
of its ``LinkStats`` drop counters) and one ``SegmentRetransmitted``
run total per sender session (from ``SenderSession.retransmissions``)
when it ends, and the wide fold's ``dropped_packets`` and the replayed
``transport.retransmissions`` are the same from either format — these
totals or an older trace's one event per drop and per retransmitted
segment."""

import io
import json
import warnings

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.scenario import TestbedScenario
from repro.experiments.tracedriven import synthesize_traces
from repro.obs.events import PacketDropped, SegmentRetransmitted
from repro.obs.trace import read_trace, replay_trace
from repro.obs.wide import derive_wide
from repro.transport.reliable import SenderSession
from repro.util import MB, ms

PAIR = MicrobenchParams(file_size=4 * MB)


@pytest.fixture
def built(monkeypatch):
    """What ``run_download`` builds: ``{"scenarios": [...], "senders":
    [...]}``, every sender session included, closed or not."""
    seen = {"scenarios": [], "senders": []}
    scenario_init = TestbedScenario.__init__
    sender_init = SenderSession.__init__

    def capture_scenario(self, *args, **kwargs):
        scenario_init(self, *args, **kwargs)
        seen["scenarios"].append(self)

    def capture_sender(self, *args, **kwargs):
        sender_init(self, *args, **kwargs)
        seen["senders"].append(self)

    monkeypatch.setattr(TestbedScenario, "__init__", capture_scenario)
    monkeypatch.setattr(SenderSession, "__init__", capture_sender)
    return seen


def _traced(system, params=PAIR, **kwargs):
    buffer = io.StringIO()
    result = run_download(system, params=params, seed=0, trace_path=buffer,
                          **kwargs)
    return result, buffer.getvalue()


def _drive(system):
    """The first 30 s of the referee's ``fig7_drive`` inputs: the
    deadline cuts sessions off mid-transfer."""
    trace = synthesize_traces(7, 100.0)["trace-2"]
    return _traced(
        system,
        params=MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        ),
        coverage=trace.to_coverage(["ap-A", "ap-B"]), deadline=30.0,
    )


def _of(stream, cls):
    return [s for s in stream if type(s.event) is cls]


@pytest.mark.parametrize("system", ["xftp", "softstage"])
def test_one_drop_total_per_direction_and_reason(system, built):
    """One total per direction, summing its loss, queue and down
    counters; the wide fold's ``dropped_packets`` is their run sum."""
    result, text = _traced(system)
    (scenario,) = built["scenarios"]
    expected = [
        (direction.source.name, count)
        for link in scenario.network.links
        for direction in (link.forward, link.backward)
        for count in [direction.stats.dropped_loss
                      + direction.stats.dropped_queue
                      + direction.stats.dropped_down]
        if count
    ]
    assert expected, "the run should drop packets"
    stream = list(read_trace(io.StringIO(text), strict=True))
    drops = _of(stream, PacketDropped)
    assert [(s.event.link, s.event.count) for s in drops] == expected
    assert {s.time for s in drops} == {result.download_time}
    run = derive_wide(stream)[-1]
    assert run["dropped_packets"] == sum(count for _link, count in expected)


@pytest.mark.parametrize("system", ["xftp", "softstage"])
@pytest.mark.parametrize("shape", ["demo-pair", "drive-30s"])
def test_one_retransmission_total_per_sender_session(shape, system, built):
    result, text = _traced(system) if shape == "demo-pair" else _drive(system)
    expected = {}
    for sender in built["senders"]:
        if sender.retransmissions:
            expected[sender.session_id] = (
                expected.get(sender.session_id, 0) + sender.retransmissions)
    assert expected, "the run should retransmit segments"
    totals = _of(read_trace(io.StringIO(text), strict=True),
                 SegmentRetransmitted)
    assert {s.event.session: s.event.count for s in totals} == expected
    assert len(totals) == len(expected)
    assert {s.time for s in totals} == {result.download_time}
    assert result.metrics.counters["transport.retransmissions"] == sum(
        expected.values())
    if (shape, system) == ("drive-30s", "softstage"):
        (scenario,) = built["scenarios"]
        endpoints = (scenario.server.endpoint, scenario.client_endpoint,
                     *(edge.endpoint for edge in scenario.edges))
        still_open = [
            sender for endpoint in endpoints
            for sender in endpoint.senders.values() if sender.retransmissions
        ]
        # The deadline left a session that had retransmitted mid-transfer
        # (one segment, at seed 0): it is counted too.
        assert still_open and all(
            any(s.event.session == sender.session_id for s in totals)
            for sender in still_open)


def _per_event(text):
    """``text`` in the older format: each drop total split, in place,
    into one event per dropped packet, and each session total into one
    event per retransmitted segment (with the ``seq`` it had)."""
    lines = []
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if record["type"] == "PacketDropped":
            lines += [json.dumps({**record, "count": 1},
                                 separators=(",", ":")) + "\n"] * record["count"]
        elif record["type"] == "SegmentRetransmitted":
            for seq in range(record.pop("count")):
                lines.append(json.dumps({**record, "seq": seq},
                                        separators=(",", ":")) + "\n")
        else:
            lines.append(line)
    return "".join(lines)


def test_a_per_event_trace_replays_to_the_same_report_as_its_totals():
    result, text = _traced("softstage", gauges=True)
    old = _per_event(text)
    assert old.count('"type":"PacketDropped"') > text.count(
        '"type":"PacketDropped"') > 0
    assert old.count('"type":"SegmentRetransmitted"') > text.count(
        '"type":"SegmentRetransmitted"') > 0
    report = replay_trace(io.StringIO(text)).report()
    assert report == result.metrics.report()
    dropped = derive_wide(read_trace(io.StringIO(text)))[-1]["dropped_packets"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert replay_trace(io.StringIO(old)).report() == report
        run = derive_wide(read_trace(io.StringIO(old)))[-1]
    assert run["dropped_packets"] == dropped > 0
    # The per-segment ``seq`` is dropped, with one warning per read.
    assert [str(w.message) for w in caught] == [
        "dropping unknown field(s) ['seq'] on SegmentRetransmitted "
        "(trace written by another version?)"] * 2

