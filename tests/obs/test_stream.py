"""The telemetry hub: fan-out, backpressure, and sim non-perturbation."""

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample
from repro.obs.stream import GaugeFeed, TelemetryHub
from repro.util import MB


# ---------------------------------------------------------------------------
# Publish / subscribe basics
# ---------------------------------------------------------------------------


def test_publish_fans_out_to_every_subscriber():
    hub = TelemetryHub()
    a, b = hub.subscribe(), hub.subscribe()
    hub.publish("gauge", {"v": 1})
    hub.publish("wide", {"v": 2})
    assert a.drain() == [("gauge", {"v": 1}), ("wide", {"v": 2})]
    assert b.drain() == [("gauge", {"v": 1}), ("wide", {"v": 2})]
    assert hub.published == 2


def test_publish_without_subscribers_is_free():
    hub = TelemetryHub()
    hub.publish("gauge", {"v": 1})
    assert hub.published == 0  # not even counted: nothing listened


def test_topic_filter_restricts_delivery():
    hub = TelemetryHub()
    sub = hub.subscribe(topics={"wide"})
    hub.publish("gauge", {"v": 1})
    hub.publish("wide", {"v": 2})
    assert sub.drain() == [("wide", {"v": 2})]
    assert sub.received == 1


def test_slow_subscriber_drops_with_counters_never_blocks():
    hub = TelemetryHub()
    sub = hub.subscribe(maxsize=2)
    for i in range(5):
        hub.publish("gauge", {"i": i})  # returns immediately every time
    assert sub.received == 2
    assert sub.dropped == 3
    # Oldest items survive; the overflow was discarded.
    assert [p["i"] for _t, p in sub.drain()] == [0, 1]
    stats = hub.stats()
    assert stats["published"] == 5
    assert stats["dropped"] == 3
    assert stats["queues"][0] == {"received": 2, "dropped": 3, "depth": 0}


def test_unsubscribe_mid_run_stops_delivery():
    hub = TelemetryHub()
    keep, leave = hub.subscribe(), hub.subscribe()
    hub.publish("gauge", {"i": 0})
    leave.close()
    hub.publish("gauge", {"i": 1})
    assert len(keep.drain()) == 2
    assert len(leave.drain()) == 1
    assert hub.subscriber_count == 1


def test_close_delivers_sentinel_and_ends_iteration():
    hub = TelemetryHub()
    sub = hub.subscribe()
    hub.publish("gauge", {"i": 0})
    hub.close()
    assert list(sub) == [("gauge", {"i": 0})]
    assert sub.closed
    assert sub.get(timeout=0.01) is None


def test_subscribe_after_close_is_immediately_closed():
    hub = TelemetryHub()
    hub.close()
    sub = hub.subscribe()
    assert sub.get(timeout=0.01) is None
    assert sub.closed


def test_drain_consumes_the_close_sentinel():
    hub = TelemetryHub()
    sub = hub.subscribe()
    hub.publish("run", {"state": "started"})
    hub.close()
    assert sub.drain() == [("run", {"state": "started"})]
    assert sub.closed


# ---------------------------------------------------------------------------
# The bus -> hub gauge bridge
# ---------------------------------------------------------------------------


def test_gauge_feed_forwards_samples_with_run_context():
    bus = EventBus()
    hub = TelemetryHub()
    sub = hub.subscribe()
    feed = GaugeFeed(hub).attach(bus)
    names = ("staging.lead_bytes", "client.connected")
    bus.publish(Stamped(3.5, "run-x",
                        GaugeSample(gauges=names, values=(42.0, 1.0))))
    feed.detach()
    bus.publish(Stamped(4.0, "run-x",
                        GaugeSample(gauges=names, values=(43.0, 0.0))))
    assert feed.forwarded == 1
    # One item per tick, its readings keyed by name in tick order.
    (item,) = sub.drain()
    assert item == ("gauge", {
        "run": "run-x", "t": 3.5,
        "gauges": {"staging.lead_bytes": 42.0, "client.connected": 1.0},
    })
    assert list(item[1]["gauges"]) == list(names)
    assert not bus.active  # detach left the bus on its zero-cost path


# ---------------------------------------------------------------------------
# The determinism contract: telemetry never perturbs the simulation
# ---------------------------------------------------------------------------


def test_fixed_seed_run_is_bit_identical_with_subscribers_attached():
    params = MicrobenchParams(file_size=2 * MB)
    bare = run_download("softstage", params=params, seed=0, gauges=True)

    hub = TelemetryHub()
    # A deliberately tiny queue: the subscriber *will* drop, and the
    # run must not care.  audit=True keeps the PR 5 invariant auditor
    # on the bus throughout.
    sub = hub.subscribe(maxsize=1)
    fed = run_download(
        "softstage", params=params, seed=0, gauges=True, audit=True,
        hub=hub, wide=None,
    )
    hub.close()

    assert fed.download_time == bare.download_time
    assert fed.download.bytes_received == bare.download.bytes_received
    assert fed.download.chunks_completed == bare.download.chunks_completed
    assert fed.download.chunks_from_edge == bare.download.chunks_from_edge
    assert fed.metrics.report() == bare.metrics.report()
    # The hub really was under pressure (items were dropped), the run
    # lifecycle markers flowed, and the auditor stayed green.
    assert sub.dropped > 0
    topics = {t for t, _p in sub.drain()}
    assert "run" in topics
    assert fed.auditor.violations == []


def test_wide_records_are_identical_with_and_without_a_hub():
    params = MicrobenchParams(file_size=2 * MB)
    plain = run_download("softstage", params=params, seed=0, wide=None,
                         hub=None, gauges=True, trace_path=None)
    hub = TelemetryHub()
    hub.subscribe(maxsize=4)
    fed = run_download("softstage", params=params, seed=0, gauges=True,
                       hub=hub)
    hub.close()
    # plain had no wide sink or hub -> no records were built there;
    # rebuild the baseline with a records-only sink for comparison.
    import io

    baseline = run_download("softstage", params=params, seed=0, gauges=True,
                            wide=io.StringIO())
    assert plain.wide_records is None
    assert fed.wide_records == baseline.wide_records
    assert fed.wide_records and fed.wide_records[-1]["kind"] == "run"


def test_close_is_never_lost_to_a_full_queue():
    """The close sentinel can be dropped; the close *flag* cannot.

    Regression: a busy demo fills a slow SSE subscriber's queue, the
    sentinel hits queue.Full and vanishes, and the subscriber never
    learns the hub closed — so `repro serve` shutdown hangs past its
    grace period and the terminal frame is lost.
    """
    hub = TelemetryHub()
    sub = hub.subscribe(maxsize=2)
    for i in range(5):
        hub.publish("gauge", {"i": i})
    assert sub.dropped == 3
    hub.close()  # sentinel lost: the queue is still full
    assert [p["i"] for _t, p in sub.drain()] == [0, 1]
    assert sub.closed
    assert sub.get(timeout=0.01) is None


def test_wait_closed_returns_once_subscribers_detach():
    import threading

    hub = TelemetryHub()
    sub = hub.subscribe()
    assert hub.wait_closed(timeout=0.05) is False  # still attached
    threading.Timer(0.05, sub.close).start()
    assert hub.wait_closed(timeout=5.0) is True


def test_a_draining_thread_loses_and_reorders_nothing_under_contention():
    """One producer, one blocking consumer, more runnable threads than
    cores and a 10 µs switch interval: every offered item is either
    delivered in order or counted as dropped, and the backlog never
    exceeds the bound."""
    import sys
    import threading

    hub = TelemetryHub()
    sub = hub.subscribe(maxsize=64)
    consumed: list[int] = []
    deepest = 0
    stop = threading.Event()

    def drain() -> None:
        for _topic, payload in sub:
            consumed.append(payload["i"])

    def spin() -> None:
        while not stop.is_set():
            pass

    threads = [threading.Thread(target=drain)]
    threads += [threading.Thread(target=spin) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for i in range(20_000):
            hub.publish("gauge", {"i": i})
            deepest = max(deepest, sub._queue.qsize())
        dropped = sub.dropped  # close()'s own sentinel may be dropped too
        hub.close()
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sub.closed
    assert len(consumed) == sub.received
    assert sub.received + dropped == 20_000
    assert consumed == sorted(consumed)
    assert deepest <= 64
