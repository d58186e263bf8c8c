"""Monitor/TimeSeries edge behavior and collector attach/detach contracts."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs.events import CacheMiss
from repro.obs.probe import Probe
from repro.sim import Monitor, Simulator, TimeSeries


# ---------------------------------------------------------------------------
# TimeSeries record/len/iter and Monitor streaming statistics
# ---------------------------------------------------------------------------


def test_timeseries_len_iter_last_roundtrip():
    series = TimeSeries("s")
    series.record(10.0, 4.0)
    series.record(20.0, 8.0)
    assert len(series) == 2
    assert list(series) == [(10.0, 4.0), (20.0, 8.0)]
    assert list(TimeSeries("e")) == []


def test_timeseries_out_of_order_rejection_names_the_series():
    series = TimeSeries("queue")
    series.record(5.0, 1.0)
    with pytest.raises(ValueError, match="queue"):
        series.record(4.0, 2.0)
    # Equal times are legal (step function with repeated samples).
    series.record(5.0, 3.0)
    assert list(series) == [(5.0, 1.0), (5.0, 3.0)]


def test_monitor_streaming_stats():
    monitor = Monitor("m")
    for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        monitor.observe(value)
    assert monitor.count == 8
    assert monitor.mean == pytest.approx(5.0)
    assert monitor.minimum == 2.0
    assert monitor.maximum == 9.0


def test_monitor_empty_contract():
    monitor = Monitor("m")
    with pytest.raises(ValueError, match="no observations"):
        monitor.mean
    assert "empty" in repr(monitor)


def test_monitor_single_observation():
    monitor = Monitor("m")
    monitor.observe(3.5)
    assert monitor.mean == 3.5
    assert monitor.minimum == monitor.maximum == 3.5


# ---------------------------------------------------------------------------
# MetricsCollector.detach is an idempotent no-op
# ---------------------------------------------------------------------------


def _emit_one(probe):
    probe.emit(CacheMiss(store="s", cid="c"))


def test_detach_twice_is_a_noop():
    probe = Probe(Simulator())
    collector = MetricsCollector().attach(probe.bus)
    _emit_one(probe)
    collector.detach()
    collector.detach()  # second detach: no error, no effect
    _emit_one(probe)
    assert collector.counters["cache.misses"] == 1


def test_detach_without_attach_is_a_noop():
    collector = MetricsCollector()
    collector.detach()  # never attached at all
    assert collector.counters == {}


def test_detach_stops_every_attached_bus():
    probe_a, probe_b = Probe(Simulator()), Probe(Simulator())
    collector = MetricsCollector().attach(probe_a.bus).attach(probe_b.bus)
    _emit_one(probe_a)
    _emit_one(probe_b)
    assert collector.counters["cache.misses"] == 2
    collector.detach()
    _emit_one(probe_a)
    _emit_one(probe_b)
    assert collector.counters["cache.misses"] == 2
