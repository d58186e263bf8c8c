"""Tests for the metrics collector."""

import pytest

from repro.metrics import MetricsCollector
from repro.sim import Simulator, TimeSeries


def test_collector_counters_and_samples():
    collector = MetricsCollector()
    collector.count("fetches")
    collector.count("fetches", 2)
    collector.observe("latency", 0.5)
    collector.observe("latency", 1.5)
    assert collector.counters["fetches"] == 3
    assert collector.report()["latency.mean"] == 1.0
    assert collector.samples("latency") == [0.5, 1.5]


def test_time_series_records_the_sim_clock():
    sim = Simulator()
    series = TimeSeries("staged")

    def worker(sim):
        series.record(sim.now, 1)
        yield sim.timeout(2.0)
        series.record(sim.now, 5)

    sim.process(worker(sim))
    sim.run()
    assert list(series) == [(0.0, 1), (2.0, 5)]


def test_time_series_rejects_a_sample_older_than_its_last():
    series = TimeSeries("x")
    series.record(2.0, 1.0)
    series.record(2.0, 3.0)  # same instant: allowed
    with pytest.raises(ValueError, match="non-monotonic"):
        series.record(1.0, 4.0)
    assert list(series) == [(2.0, 1.0), (2.0, 3.0)]


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
