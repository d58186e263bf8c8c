"""Tests for the metrics collector."""

import pytest

from repro.metrics import MetricsCollector
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


def test_collector_series_with_sim_clock():
    sim = Simulator()
    collector = MetricsCollector(sim)

    def worker(sim):
        collector.record("staged", 1)
        yield sim.timeout(2.0)
        collector.record("staged", 5)

    sim.process(worker(sim))
    sim.run()
    series = collector.series("staged")
    assert list(series) == [(0.0, 1), (2.0, 5)]


def test_collector_series_needs_clock_or_time():
    # Without a simulator only bus events, which carry their time, can
    # add points; a bare ``record`` has no clock to read.
    collector = MetricsCollector()
    with pytest.raises(ValueError):
        collector.record("x", 1.0)
    assert collector.series_names() == []


def test_collector_unknown_names_raise():
    collector = MetricsCollector()
    with pytest.raises(KeyError):
        collector.series("nope")


def test_collector_report_flattens():
    collector = MetricsCollector()
    collector.count("a")
    collector.observe("b", 2.0)
    report = collector.report()
    assert report["a"] == 1.0
    assert report["b.mean"] == 2.0
