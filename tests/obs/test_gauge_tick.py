"""The tick contract: one ``GaugeSample`` per sampler tick.

A tick carries every registered gauge's reading at one instant, as two
parallel tuples in registration order, on the bus, in the JSONL trace
and (as one item) on the telemetry hub.  Every consumer unpacks it
into exactly what it kept when each reading was an event of its own:
the gauge timelines below are pinned by digests captured while that
was so.
"""

import hashlib
import io
import warnings

import pytest

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.tracedriven import synthesize_traces
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample
from repro.obs.flight import GaugeSampler, InvariantAuditor
from repro.obs.trace import TraceExporter, read_trace, replay_trace
from repro.util import MB, ms


def _traced(system, monkeypatch, **kwargs):
    """One gauged run traced to a buffer: ``(result, trace events,
    gauge names in the order they were registered)``."""
    registered = []
    register = GaugeSampler.register

    def spy(self, name, fn):
        registered.append(name)
        return register(self, name, fn)

    monkeypatch.setattr(GaugeSampler, "register", spy)
    buffer = io.StringIO()
    result = run_download(system, trace_path=buffer, gauges=True, **kwargs)
    events = list(read_trace(io.StringIO(buffer.getvalue()), strict=True))
    return result, events, tuple(registered)


@pytest.mark.parametrize("system", ["xftp", "softstage"])
def test_a_traced_run_emits_one_gauge_sample_per_tick(system, monkeypatch):
    result, events, registered = _traced(
        system, monkeypatch, params=MicrobenchParams(file_size=2 * MB),
        seed=0,
    )
    ticks = [s for s in events if type(s.event) is GaugeSample]
    assert len(ticks) == result.sampler.samples_taken > 1
    for stamped in ticks:
        assert stamped.event.gauges == registered
        assert len(stamped.event.values) == len(registered)
        assert type(stamped.event.values) is tuple
    times = [s.time for s in ticks]
    assert times == sorted(set(times))  # one tick per instant
    assert ("staging.lead_bytes" in registered) == (system == "softstage")


# -- identical timelines, live and replayed, before and after ------------------


def _digest(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()


def _timeline_digest(timelines: dict) -> str:
    # ``pool.packet*`` read the process-wide packet pool, so their values
    # depend on what ran earlier in the process: only their length is
    # pinned, and replay parity covers the values.
    return _digest(sorted(
        (name, len(series) if ".pool.packet" in name else series)
        for name, series in timelines.items()
    ))


def _demo_pair():
    params = MicrobenchParams(file_size=4 * MB)
    return [dict(system=s, params=params, seed=0)
            for s in ("xftp", "softstage")]


def _drive():
    """``fig7_drive``'s inputs, cut at 30 s of trace-2."""
    trace = synthesize_traces(7, 100.0)["trace-2"]
    params = MicrobenchParams(
        file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
    )
    return [dict(system=s, params=params, seed=0, deadline=30.0,
                 coverage=trace.to_coverage(["ap-A", "ap-B"]))
            for s in ("xftp", "softstage")]


#: scenario -> (its runs, then the digests of the pair's gauge timelines
#: and of its two ``report()``s, captured when every gauge reading was
#: an event of its own).  The report digests were re-captured once when
#: the collector stopped copying counts an object or the run record
#: keeps: they equal the old reports with exactly those keys left out.
PINNED = {
    "demo-pair": (_demo_pair, "1506e6ca6309fc789594f9ada6596666dc22f5ed",
                  "8dc65f8f27b1aa1f022ab78551e20454f1fee8eb"),
    "drive-30s": (_drive, "2f88b8228883a7a70104675de96981eab06fc40b",
                  "12fcb3664821783d476e99a8f394251f3d77f2f3"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_timelines_and_reports_match_replay_and_the_per_gauge_digests(name):
    runs, timelines_digest, reports_digest = PINNED[name]
    buffer = io.StringIO()
    timelines, reports = {}, []
    for kwargs in runs():
        result = run_download(trace_path=buffer, gauges=True, audit=True,
                              **kwargs)
        assert result.auditor.ok
        timelines.update(result.metrics.timelines("gauge."))
        reports.append(sorted(result.metrics.report().items()))
    buffer.seek(0)
    replayed = replay_trace(buffer)
    assert replayed.timelines("gauge.") == timelines
    assert _timeline_digest(timelines) == timelines_digest
    assert _digest(reports) == reports_digest
    # The replayed collector holds both runs: its report is their sum.
    summed: dict = {}
    for report in reports:
        for key, value in report:
            if not key.endswith((".mean", ".min", ".max")):
                summed[key] = summed.get(key, 0) + value
    replayed_report = replayed.report()
    assert {k: replayed_report[k] for k in summed} == summed


# -- traces written one line per gauge reading ---------------------------------


def test_a_per_gauge_line_is_skipped_with_one_warning_and_counted():
    tick = Stamped(0.5, "r", GaugeSample(gauges=("a", "b"), values=(1.0, 2.0)))
    buffer = io.StringIO()
    bus = EventBus()
    exporter = TraceExporter(buffer).attach(bus)
    bus.publish(tick)
    exporter.close()
    per_gauge = [
        '{"t":0.0,"run":"r","type":"GaugeSample","gauge":"a","value":3.0}\n',
        '{"t":0.0,"run":"r","type":"GaugeSample","gauge":"b","value":4.0}\n',
    ]
    hit = '{"t":0.25,"run":"r","type":"CacheHit","store":"s","cid":"c"}\n'
    text = per_gauge[0] + per_gauge[1] + hit + buffer.getvalue()
    counts: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        events = list(read_trace(io.StringIO(text), unknown_counts=counts))
    assert len(caught) == 1
    assert "GaugeSample" in str(caught[0].message)
    assert counts == {"GaugeSample": 2}
    assert [type(s.event).__name__ for s in events] == [
        "CacheHit", "GaugeSample"]
    assert events[1] == tick
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        collector = replay_trace(io.StringIO(text))
    assert collector.timelines("gauge.") == {
        "gauge.r.a": [(0.5, 1.0)], "gauge.r.b": [(0.5, 2.0)]}
    with pytest.raises(TypeError):
        list(read_trace(io.StringIO(text), strict=True))


# -- the auditor reads a tick pair by pair, in order ---------------------------


def _tick(time, *readings):
    names, values = zip(*readings)
    return Stamped(time, "r", GaugeSample(gauges=names, values=values))


def test_a_negative_reading_mid_tick_fires_gauge_sane_with_its_name():
    auditor = InvariantAuditor(strict=False)
    bus = EventBus()
    auditor.attach(bus)
    bus.publish(_tick(1.5, ("a", 1.0), ("b", -2.5),
                      ("pool.event_allocs", 1.0), ("pool.events_free", 2.0)))
    violation, later = auditor.violations
    assert violation.invariant == "gauge-sane"
    assert violation.detail == "gauge 'b' sampled negative (-2.5)"
    assert (violation.time, violation.run_id) == (1.5, "r")
    assert auditor.events_audited == 1
    # The readings after the offender were still booked and checked.
    assert later.invariant == "pool-balance"
    strict = InvariantAuditor(strict=True)
    strict_bus = EventBus()
    strict.attach(strict_bus)
    with pytest.raises(AssertionError, match="gauge 'b' sampled negative"):
        strict_bus.publish(_tick(1.5, ("a", 1.0), ("b", -2.5)))


def test_pool_balance_reads_the_bound_from_earlier_in_the_tick():
    auditor = InvariantAuditor(strict=False)
    bus = EventBus()
    auditor.attach(bus)
    # The sampler's order: the allocation count, then the free list.
    bus.publish(_tick(0.0, ("pool.event_allocs", 10.0),
                      ("pool.events_free", 5.0)))
    bus.publish(_tick(0.5, ("pool.event_allocs", 20.0),
                      ("pool.events_free", 12.0)))
    assert auditor.ok
    # Free list first: it is judged against the previous tick's bound.
    bus.publish(_tick(1.0, ("pool.packets_free", 3.0),
                      ("pool.packet_releases", 4.0),
                      ("pool.events_free", 25.0),
                      ("pool.event_allocs", 30.0)))
    (violation,) = auditor.violations
    assert violation.invariant == "pool-balance"
    assert violation.detail == (
        "kernel event free list holds 25 events but only 20 were ever "
        "allocated"
    )
    bus.publish(_tick(1.5, ("pool.packets_free", 5.0)))
    assert auditor.violations[-1].detail == (
        "packet free list holds 5 packets but only 4 were ever released"
    )
