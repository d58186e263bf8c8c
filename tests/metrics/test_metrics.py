"""Tests for the metrics collector."""

import pytest

from repro.metrics import MetricsCollector
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample
from repro.obs.flight import GaugeSampler
from repro.sim import Simulator


def test_collector_counters_and_samples():
    collector = MetricsCollector()
    collector.count("fetches")
    collector.count("fetches", 2)
    collector.observe("latency", 0.5)
    collector.observe("latency", 1.5)
    assert collector.counters["fetches"] == 3
    assert collector.report()["latency.mean"] == 1.0
    assert collector.samples("latency") == [0.5, 1.5]


def _tick(time, run_id, names, values):
    return Stamped(time, run_id, GaugeSample(gauges=names, values=values))


def _fed(*stampeds):
    bus = EventBus()
    collector = MetricsCollector().attach(bus)
    for stamped in stampeds:
        bus.publish(stamped)
    return collector


def test_time_series_records_the_sim_clock():
    sim = Simulator()
    sim.probe.run_id = "r"
    collector = MetricsCollector().attach(sim.probe.bus)
    state = {"staged": 1.0}
    GaugeSampler(sim).register("staged", lambda: state["staged"]).start()

    def worker(sim):
        yield sim.timeout(0.75)
        state["staged"] = 5.0

    sim.process(worker(sim))
    sim.run(until=1.25)
    assert collector.timelines() == {
        "gauge.r.staged": [(0.0, 1.0), (0.5, 1.0), (1.0, 5.0)],
    }


def test_time_series_rejects_a_sample_older_than_its_last():
    bus = EventBus()
    collector = MetricsCollector().attach(bus)
    bus.publish(_tick(2.0, "r", ("x",), (1.0,)))
    bus.publish(_tick(2.0, "r", ("x",), (3.0,)))  # same instant: allowed
    with pytest.raises(ValueError, match="non-monotonic.*'r'"):
        bus.publish(_tick(1.0, "r", ("x",), (4.0,)))
    assert collector.timelines() == {"gauge.r.x": [(2.0, 1.0), (2.0, 3.0)]}


def test_the_same_tick_times_in_two_runs_are_two_timelines():
    collector = _fed(
        _tick(2.0, "a", ("x",), (1.0,)),
        _tick(1.0, "b", ("x",), (2.0,)),  # older, but another run
        _tick(3.0, "a", ("x",), (3.0,)),
        _tick(1.0, "b", ("x",), (4.0,)),
    )
    assert collector.timelines() == {
        "gauge.a.x": [(2.0, 1.0), (3.0, 3.0)],
        "gauge.b.x": [(1.0, 2.0), (1.0, 4.0)],
    }
    assert collector.timelines("gauge.b.") == {
        "gauge.b.x": [(1.0, 2.0), (1.0, 4.0)],
    }


def test_a_tick_whose_names_grow_mid_run_projects_exact_timelines():
    collector = _fed(
        _tick(0.0, "r", ("a", "b"), (1.0, 2.0)),
        _tick(0.5, "r", ("a", "b", "c"), (3.0, 4.0, 5.0)),
        _tick(1.0, "r", ("c", "a"), (6.0, 7.0)),
        _tick(1.5, "r", ("a", "b"), (8.0, 9.0)),
    )
    assert collector.timelines() == {
        "gauge.r.a": [(0.0, 1.0), (0.5, 3.0), (1.0, 7.0), (1.5, 8.0)],
        "gauge.r.b": [(0.0, 2.0), (0.5, 4.0), (1.5, 9.0)],
        "gauge.r.c": [(0.5, 5.0), (1.0, 6.0)],
    }
    # In name order, as the registry persists them.
    assert list(collector.timelines()) == ["gauge.r.a", "gauge.r.b", "gauge.r.c"]


def test_collector_unknown_prefix_has_no_timelines():
    collector = _fed(_tick(0.0, "r", ("x",), (1.0,)))
    assert collector.timelines("gauge.nope.") == {}
    assert MetricsCollector().timelines() == {}


def test_collector_report_flattens():
    collector = MetricsCollector()
    collector.count("a")
    collector.observe("b", 2.0)
    report = collector.report()
    assert report["a"] == 1.0
    assert report["b.mean"] == 2.0
