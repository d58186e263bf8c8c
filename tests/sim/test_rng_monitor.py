"""Tests for RandomStreams, the collector's sample monitors and its gauge
time series."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import MetricsCollector
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample
from repro.sim import RandomStreams


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------


def test_same_seed_same_name_same_sequence():
    a = RandomStreams(7).stream("loss")
    b = RandomStreams(7).stream("loss")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_give_independent_sequences():
    streams = RandomStreams(7)
    a = [streams.stream("loss").random() for _ in range(5)]
    b = [streams.stream("mobility").random() for _ in range(5)]
    assert a != b


def test_creation_order_does_not_matter():
    first = RandomStreams(3)
    first.stream("x")
    value_y_after_x = first.stream("y").random()
    second = RandomStreams(3)
    value_y_alone = second.stream("y").random()
    assert value_y_after_x == value_y_alone


def test_different_seeds_differ():
    a = RandomStreams(1).stream("s").random()
    b = RandomStreams(2).stream("s").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("a") is streams.stream("a")


# ---------------------------------------------------------------------------
# The collector's per-name sample monitor (observe -> report)
# ---------------------------------------------------------------------------


def _report(values):
    collector = MetricsCollector()
    for value in values:
        collector.observe("m", value)
    return collector.report()


def test_monitor_mean_min_max():
    report = _report((1.0, 2.0, 3.0, 4.0))
    assert report["m.mean"] == pytest.approx(2.5)
    assert report["m.min"] == 1.0
    assert report["m.max"] == 4.0


def test_monitor_empty_raises():
    # No observation, no mean: reading one is an error, never a 0.
    with pytest.raises(KeyError):
        _ = _report(())["m.mean"]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
def test_monitor_mean_matches_batch_mean(values):
    mean = _report(values)["m.mean"]
    assert mean == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# The collector's gauge time series
# ---------------------------------------------------------------------------


def _tick(time, value):
    return Stamped(time, "ts", GaugeSample(gauges=("v",), values=(value,)))


def test_timeseries_records_in_order():
    bus = EventBus()
    collector = MetricsCollector().attach(bus)
    bus.publish(_tick(0.0, 1.0))
    bus.publish(_tick(2.0, 3.0))
    assert collector.timelines() == {"gauge.ts.v": [(0.0, 1.0), (2.0, 3.0)]}


def test_timeseries_rejects_time_reversal():
    bus = EventBus()
    MetricsCollector().attach(bus)
    bus.publish(_tick(5.0, 1.0))
    with pytest.raises(ValueError):
        bus.publish(_tick(4.0, 2.0))
