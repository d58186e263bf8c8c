"""ARQ retries are state, not events: a traced run publishes one
``LinkRetransmission`` run total per wireless direction when it ends,
and replay rebuilds ``net.arq_retransmissions`` from either format —
these totals or an older trace's one event per retried frame."""

import io
import json

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.scenario import TestbedScenario
from repro.experiments.tracedriven import synthesize_traces
from repro.net.wireless import WirelessDirection
from repro.obs.events import (
    LinkRetransmission,
    PacketDropped,
    SegmentRetransmitted,
)
from repro.obs.trace import read_trace, replay_trace
from repro.util import MB, ms

PAIR = MicrobenchParams(file_size=4 * MB)

#: Events a traced 4 MB Xftp + SoftStage pair (seed 0, gauges off) may
#: publish.  It publishes 67; with one event per dropped packet and per
#: retransmitted segment it published 209, and with one
#: ``LinkRetransmission`` per retried frame as well 3,148, so a
#: per-packet emit site coming back overshoots the budget.
PAIR_EVENT_BUDGET = 100


def _traced(system, params=PAIR, **kwargs):
    """One traced run with its own trace buffer; (result, trace text)."""
    buffer = io.StringIO()
    result = run_download(system, params=params, seed=0, trace_path=buffer,
                          **kwargs)
    return result, buffer.getvalue()


def _drive(system):
    """The first 30 s of the referee's ``fig7_drive`` inputs."""
    trace = synthesize_traces(7, 100.0)["trace-2"]
    return _traced(
        system,
        params=MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        ),
        coverage=trace.to_coverage(["ap-A", "ap-B"]),
        deadline=30.0,
        gauges=True,
        audit=True,
    )


@pytest.fixture
def scenarios(monkeypatch):
    """The scenarios ``run_download`` builds, to read their directions."""
    built = []
    original = TestbedScenario.__init__

    def capturing_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TestbedScenario, "__init__", capturing_init)
    return built


@pytest.mark.parametrize("system", ["xftp", "softstage"])
def test_one_summary_per_wireless_direction_with_retries(system, scenarios):
    result, text = _traced(system)
    (scenario,) = scenarios
    expected = [
        (direction.source.name, direction.retransmissions)
        for link in scenario.network.links
        for direction in (link.forward, link.backward)
        if isinstance(direction, WirelessDirection) and direction.retransmissions
    ]
    assert expected, "the run should exercise ARQ"
    stream = list(read_trace(io.StringIO(text)))
    summaries = [
        (s.event.link, s.event.retries) for s in stream
        if isinstance(s.event, LinkRetransmission)
    ]
    # In link order, forward before backward, among the run's last
    # events — its run totals — stamped when the download ended.
    assert summaries == expected
    totals = (LinkRetransmission, PacketDropped, SegmentRetransmitted)
    tail = stream[-sum(isinstance(s.event, totals) for s in stream):]
    assert all(isinstance(s.event, totals) for s in tail)
    assert {s.time for s in tail} == {result.download_time}
    assert result.metrics.counters["net.arq_retransmissions"] == sum(
        retries for _link, retries in expected
    )


def _per_frame(text):
    """``text`` in the old format: each run total split, in place, into
    one event per retried frame (1 to 4 retries each)."""
    lines = []
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if record["type"] != "LinkRetransmission":
            lines.append(line)
            continue
        remaining, frame = record["retries"], 0
        while remaining:
            retries = min(remaining, 1 + frame % 4)
            remaining -= retries
            frame += 1
            lines.append(json.dumps({**record, "retries": retries},
                                    separators=(",", ":")) + "\n")
    return "".join(lines)


def test_a_per_frame_trace_replays_to_the_same_report_as_its_summary():
    result, text = _traced("softstage", gauges=True)
    old = _per_frame(text)
    frames = old.count('"type":"LinkRetransmission"')
    assert frames > text.count('"type":"LinkRetransmission"') > 0
    summary = replay_trace(io.StringIO(text)).report()
    assert replay_trace(io.StringIO(old)).report() == summary
    assert summary == result.metrics.report()


@pytest.mark.parametrize("system", ["xftp", "softstage"])
@pytest.mark.parametrize("shape", ["demo-pair", "fig7-drive"])
def test_live_report_equals_replayed_with_gauges_and_strict_audit(shape, system):
    if shape == "demo-pair":
        result, text = _traced(system, gauges=True, audit=True)
    else:
        result, text = _drive(system)
    assert result.auditor.ok
    assert replay_trace(io.StringIO(text)).report() == result.metrics.report()


def test_a_traced_pair_stays_under_the_event_budget():
    events = sum(
        sum(1 for _ in read_trace(io.StringIO(_traced(system)[1])))
        for system in ("xftp", "softstage")
    )
    assert events <= PAIR_EVENT_BUDGET
