"""The collector's gauge time series edge behavior, its per-name sample
statistics and its attach/detach contracts (more of its gauge tick store:
tests/metrics/test_metrics.py)."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample, SessionMigrated
from repro.obs.probe import Probe
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# The collector's gauge time series and its sample monitors
# ---------------------------------------------------------------------------


def test_timeseries_out_of_order_rejection_names_the_series():
    bus = EventBus()
    collector = MetricsCollector().attach(bus)
    bus.publish(Stamped(5.0, "queue", GaugeSample(gauges=("q",), values=(1.0,))))
    with pytest.raises(ValueError, match="queue"):
        bus.publish(Stamped(4.0, "queue", GaugeSample(gauges=("q",), values=(2.0,))))
    # Equal times are legal (step function with repeated samples).
    bus.publish(Stamped(5.0, "queue", GaugeSample(gauges=("q",), values=(3.0,))))
    assert collector.timelines() == {"gauge.queue.q": [(5.0, 1.0), (5.0, 3.0)]}


def _observed(*values):
    collector = MetricsCollector()
    for value in values:
        collector.observe("m", value)
    return collector


def test_monitor_streaming_stats():
    collector = _observed(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
    assert len(collector.samples("m")) == 8
    report = collector.report()
    assert report["m.mean"] == pytest.approx(5.0)
    assert report["m.min"] == 2.0
    assert report["m.max"] == 9.0


def test_monitor_empty_contract():
    # A name never observed has no statistics at all, not zeros.
    collector = MetricsCollector()
    collector.count("c")
    assert collector.report() == {"c": 1.0}
    assert collector.samples("m") == []


def test_monitor_single_observation():
    report = _observed(3.5).report()
    assert report["m.mean"] == 3.5
    assert report["m.min"] == report["m.max"] == 3.5


def test_monitor_mean_is_the_streaming_mean_bit_for_bit():
    """``report()`` keeps the streaming mean's arithmetic — ``mean +=
    (v - mean) / n`` in arrival order — so its floats are the ones a
    replayed trace and the auditor's parity check compare against."""
    values = [0.1, 0.7, 1e9, -3.3, 0.2]
    mean = 0.0
    for n, value in enumerate(values, 1):
        mean += (value - mean) / n
    assert mean != sum(values) / len(values)  # the order matters here
    assert _observed(*values).report()["m.mean"] == mean


# ---------------------------------------------------------------------------
# MetricsCollector.detach is an idempotent no-op
# ---------------------------------------------------------------------------


def _emit_one(probe):
    probe.emit(SessionMigrated(session=1))


def test_detach_twice_is_a_noop():
    probe = Probe(Simulator())
    collector = MetricsCollector().attach(probe.bus)
    _emit_one(probe)
    collector.detach()
    collector.detach()  # second detach: no error, no effect
    _emit_one(probe)
    assert collector.counters["transport.migrations"] == 1


def test_detach_without_attach_is_a_noop():
    collector = MetricsCollector()
    collector.detach()  # never attached at all
    assert collector.counters == {}


def test_detach_stops_every_attached_bus():
    probe_a, probe_b = Probe(Simulator()), Probe(Simulator())
    collector = MetricsCollector().attach(probe_a.bus).attach(probe_b.bus)
    _emit_one(probe_a)
    _emit_one(probe_b)
    assert collector.counters["transport.migrations"] == 2
    collector.detach()
    _emit_one(probe_a)
    _emit_one(probe_b)
    assert collector.counters["transport.migrations"] == 2
