"""ARQ retries are state, not events: the wireless direction's
``retransmissions`` is their one record, a traced run publishes none,
and an older trace's one event per retried frame is skipped on replay
without moving the report."""

import io
import json

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.scenario import TestbedScenario
from repro.experiments.tracedriven import synthesize_traces
from repro.metrics.collector import MetricsCollector
from repro.net.wireless import WirelessDirection
from repro.obs.bus import EventBus
from repro.obs.trace import read_trace, replay_trace
from repro.util import MB, ms

PAIR = MicrobenchParams(file_size=4 * MB)

#: Events a traced 4 MB Xftp + SoftStage pair (seed 0, gauges off) may
#: publish.  It publishes 61 (67 with link up/down events and ARQ and
#: per-reason drop totals); with one event per dropped packet and per
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


def _with_per_frame_retries(text, directions):
    """``text`` in an older format: ``directions``' ``(link, retries)``
    as one ``LinkRetransmission`` line per retried frame (1 to 4 retries
    each), ahead of the run totals the older traces closed with."""
    lines = text.splitlines(keepends=True)
    tail = next(i for i, line in enumerate(lines)
                if json.loads(line)["type"] in ("PacketDropped",
                                                "SegmentRetransmitted"))
    envelope = json.loads(lines[tail])
    frames = []
    for link, remaining in directions:
        frame = 0
        while remaining:
            retries = min(remaining, 1 + frame % 4)
            remaining -= retries
            frame += 1
            frames.append(json.dumps(
                {"t": envelope["t"], "run": envelope["run"],
                 "type": "LinkRetransmission", "link": link,
                 "retries": retries},
                separators=(",", ":")) + "\n")
    return "".join(lines[:tail] + frames + lines[tail:]), len(frames)


def test_a_per_frame_trace_replays_to_the_same_report_as_its_summary(scenarios):
    """A traced run publishes no ARQ event (the wireless direction's
    ``retransmissions`` is the one record); an older trace's per-frame
    ``LinkRetransmission`` lines are skipped, counted and warned about
    once, and replay to the same report."""
    result, text = _traced("softstage", gauges=True)
    (scenario,) = scenarios
    retried = [
        (direction.source.name, direction.retransmissions)
        for link in scenario.network.links
        for direction in (link.forward, link.backward)
        if isinstance(direction, WirelessDirection) and direction.retransmissions
    ]
    assert retried, "the run should exercise ARQ"
    assert '"LinkRetransmission"' not in text
    old, frames = _with_per_frame_retries(text, retried)
    assert frames > len(retried)
    summary = replay_trace(io.StringIO(text)).report()
    assert summary == result.metrics.report()
    skipped = {}
    with pytest.warns(UserWarning, match="LinkRetransmission") as caught:
        collector = MetricsCollector()
        bus = EventBus()
        collector.attach(bus)
        for stamped in read_trace(io.StringIO(old), unknown_counts=skipped):
            bus.publish(stamped)
    assert len(caught) == 1
    assert skipped == {"LinkRetransmission": frames}
    assert collector.report() == summary


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
