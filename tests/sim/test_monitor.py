"""Monitor/TimeSeries edge behavior and collector attach/detach contracts.

Regression coverage for the before-first-sample contract: a
:class:`~repro.sim.monitor.TimeSeries` is a step function that is
*undefined* before its first sample.  ``value_at`` and
``time_average`` used to extrapolate the first value backwards in
time; both now raise :class:`ValueError` instead.
"""

import math

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs.bus import EventBus
from repro.obs.events import CacheMiss
from repro.obs.probe import Probe
from repro.sim import Monitor, Simulator, TimeSeries


# ---------------------------------------------------------------------------
# TimeSeries: the before-first-sample contract
# ---------------------------------------------------------------------------


def _series():
    series = TimeSeries("s")
    series.record(10.0, 4.0)
    series.record(20.0, 8.0)
    return series


def test_value_at_before_first_sample_raises():
    series = _series()
    with pytest.raises(ValueError, match="no sample at or before"):
        series.value_at(9.999)


def test_value_at_exactly_first_sample():
    assert _series().value_at(10.0) == 4.0


def test_value_at_on_empty_series_raises():
    with pytest.raises(ValueError):
        TimeSeries("empty").value_at(0.0)


def test_time_average_before_first_sample_raises():
    series = _series()
    with pytest.raises(ValueError, match="precedes the first sample"):
        series.time_average(until=5.0)


def test_time_average_zero_width_window_is_first_value():
    assert _series().time_average(until=10.0) == 4.0


def test_time_average_partial_window_integrates_correctly():
    series = _series()
    # [10, 15): value 4 throughout -> mean 4.
    assert series.time_average(until=15.0) == pytest.approx(4.0)
    # [10, 20): 4 for 10s; [20, 25): 8 for 5s -> (40 + 40) / 15.
    assert series.time_average(until=25.0) == pytest.approx(80.0 / 15.0)


def test_time_average_mid_series_truncates_later_samples():
    series = TimeSeries("s")
    for t, v in ((0.0, 1.0), (10.0, 100.0), (20.0, 1000.0)):
        series.record(t, v)
    # until=12 sees 1 for 10s then 100 for 2s; the 1000 sample at
    # t=20 must not contribute.
    assert series.time_average(until=12.0) == pytest.approx(210.0 / 12.0)


def test_time_average_defaults_to_last_sample_time():
    assert _series().time_average() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Monitor: record/len/iter/last and streaming statistics
# ---------------------------------------------------------------------------


def test_timeseries_len_iter_last_roundtrip():
    series = _series()
    assert len(series) == 2
    assert list(series) == [(10.0, 4.0), (20.0, 8.0)]
    assert series.last() == 8.0
    assert TimeSeries("e").last() is None


def test_timeseries_out_of_order_rejection_names_the_series():
    series = TimeSeries("queue")
    series.record(5.0, 1.0)
    with pytest.raises(ValueError, match="queue"):
        series.record(4.0, 2.0)
    # Equal times are legal (step function with repeated samples).
    series.record(5.0, 3.0)
    assert series.value_at(5.0) == 3.0


def test_monitor_streaming_stats():
    monitor = Monitor("m")
    monitor.observe_many([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert monitor.count == 8
    assert monitor.mean == pytest.approx(5.0)
    assert monitor.minimum == 2.0
    assert monitor.maximum == 9.0
    # ddof=1 sample variance of the classic example set.
    assert monitor.variance == pytest.approx(32.0 / 7.0)
    assert monitor.stddev == pytest.approx(math.sqrt(32.0 / 7.0))


def test_monitor_empty_contract():
    monitor = Monitor("m")
    with pytest.raises(ValueError, match="no observations"):
        monitor.mean
    assert monitor.variance == 0.0
    assert "empty" in repr(monitor)


def test_monitor_single_observation():
    monitor = Monitor("m")
    monitor.observe(3.5)
    assert monitor.mean == 3.5
    assert monitor.variance == 0.0
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
    collector.detach(EventBus())  # nor to this specific bus
    assert collector.counters == {}


def test_detach_specific_bus_leaves_others_attached():
    probe_a, probe_b = Probe(Simulator()), Probe(Simulator())
    collector = MetricsCollector().attach(probe_a.bus).attach(probe_b.bus)
    collector.detach(probe_a.bus)
    collector.detach(probe_a.bus)  # again: still a no-op
    _emit_one(probe_a)
    _emit_one(probe_b)
    assert collector.counters["cache.misses"] == 1
    collector.detach()
    _emit_one(probe_b)
    assert collector.counters["cache.misses"] == 1
