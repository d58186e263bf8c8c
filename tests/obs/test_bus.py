"""Event bus semantics: subscription, ordering, the unsubscribed fast path."""

import pickle

import pytest

from repro.obs import EventBus, Stamped
from repro.obs.events import CacheHit, ChunkFetched, CoverageGap
from repro.sim import Simulator


def fetched(cid="c1"):
    return ChunkFetched(cid=cid, latency=0.1, from_edge=True, fallback=False)


def stamp(event, time=0.0, run="test"):
    return Stamped(time, run, event)


# -- the Stamped contract ------------------------------------------------------


def test_stamped_is_immutable():
    """The auditor renders evidence from retained ``Stamped``s long
    after delivery; nothing may change under it."""
    stamped = stamp(fetched(), time=1.5)
    for name in ("time", "run_id", "event", "anything_else"):
        with pytest.raises(AttributeError):
            setattr(stamped, name, 0)
    with pytest.raises(TypeError):
        stamped[0] = 0.0
    assert not hasattr(stamped, "__dict__")
    assert stamped == stamp(fetched(), time=1.5)
    assert hash(stamped) == hash(stamp(fetched(), time=1.5))


def test_stamped_repr_names_its_fields():
    # What the frozen dataclass it replaced printed, field for field.
    assert repr(stamp(CacheHit(store="s", cid="c"), time=0.5, run="r0")) == (
        "Stamped(time=0.5, run_id='r0', event=CacheHit(store='s', cid='c'))"
    )


def test_stamped_pickles_round_trip():
    # Sweep workers forward their streams to the parent's hub pickled.
    stamped = stamp(fetched("c9"), time=2.25, run="seed3")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(stamped, protocol))
        assert type(restored) is Stamped and restored == stamped


def test_stamped_unpacks_and_builds_by_keyword():
    time, run_id, event = stamp(fetched(), time=3.0, run="r")
    assert (time, run_id, event) == (3.0, "r", fetched())
    assert Stamped(time=3.0, run_id="r", event=fetched()) == stamp(
        fetched(), time=3.0, run="r"
    )


def test_topic_subscription_filters_by_type():
    bus = EventBus()
    seen = []
    bus.subscribe(ChunkFetched, seen.append)
    bus.publish(stamp(fetched()))
    bus.publish(stamp(CacheHit(store="s", cid="c")))
    assert [type(s.event) for s in seen] == [ChunkFetched]


def test_wildcard_receives_everything():
    bus = EventBus()
    seen = []
    bus.subscribe_all(seen.append)
    bus.publish(stamp(fetched()))
    bus.publish(stamp(CoverageGap(duration=2.0)))
    assert [type(s.event) for s in seen] == [ChunkFetched, CoverageGap]


def test_delivery_order_topic_then_wildcard_in_subscription_order():
    bus = EventBus()
    order = []
    bus.subscribe_all(lambda s: order.append("all-1"))
    bus.subscribe(ChunkFetched, lambda s: order.append("topic-1"))
    bus.subscribe(ChunkFetched, lambda s: order.append("topic-2"))
    bus.subscribe_all(lambda s: order.append("all-2"))
    bus.publish(stamp(fetched()))
    assert order == ["topic-1", "topic-2", "all-1", "all-2"]


def test_unsubscribe_stops_delivery_and_clears_active():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(ChunkFetched, seen.append)
    assert bus.active
    bus.unsubscribe(ChunkFetched, handler)
    assert not bus.active
    bus.publish(stamp(fetched()))
    assert seen == []


def test_unsubscribe_all_and_clear():
    bus = EventBus()
    seen = []
    handler = bus.subscribe_all(seen.append)
    bus.unsubscribe_all(handler)
    assert not bus.active

    bus.subscribe(ChunkFetched, seen.append)
    bus.subscribe_all(seen.append)
    bus.clear()
    assert not bus.active and bus.subscriber_count == 0


def test_subscribe_rejects_non_event_topics():
    bus = EventBus()
    with pytest.raises(TypeError):
        bus.subscribe(int, lambda s: None)


def test_no_subscriber_fast_path_publishes_nothing():
    bus = EventBus()
    assert not bus.active
    # publish() with no subscribers is a no-op (early return).
    bus.publish(stamp(fetched()))
    assert bus.subscriber_count == 0


def test_probe_is_inert_without_subscribers():
    sim = Simulator()
    assert not sim.probe.active
    sim.probe.emit(fetched())  # must not raise, must not deliver anywhere


def test_probe_stamps_time_and_run_id():
    sim = Simulator()
    sim.probe.run_id = "seed42"
    seen = []
    sim.probe.bus.subscribe_all(seen.append)

    def worker(sim):
        yield sim.timeout(3.5)
        sim.probe.emit(CoverageGap(duration=1.0))

    sim.process(worker(sim))
    sim.run()
    assert len(seen) == 1
    assert seen[0].time == 3.5
    assert seen[0].run_id == "seed42"
    assert seen[0].event == CoverageGap(duration=1.0)


def test_process_failure_is_published():
    from repro.obs.events import ProcessFailed

    sim = Simulator()
    seen = []
    sim.probe.bus.subscribe(ProcessFailed, seen.append)

    def crasher(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    process = sim.process(crasher(sim))
    with pytest.raises(RuntimeError):
        sim.run(until=process)
    assert len(seen) == 1
    assert "boom" in seen[0].event.error


def test_uninstrumented_run_constructs_zero_event_objects(monkeypatch):
    """With no subscribers, emit sites must not even build event objects.

    Every emit site is written as ``if probe.active: probe.emit(Evt(...))``
    so an uninstrumented run never pays for dataclass construction.  Patch
    every event class constructor to explode; a full download must still
    complete untouched.
    """
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.obs.events import EVENT_TYPES
    from repro.util import MB

    def boom(self, *args, **kwargs):
        raise AssertionError(
            f"{type(self).__name__} constructed during uninstrumented run"
        )

    for cls in EVENT_TYPES.values():
        monkeypatch.setattr(cls, "__init__", boom)

    params = MicrobenchParams(file_size=2 * MB, chunk_size=1 * MB,
                              packet_loss=0.05)
    result = run_download("softstage", params=params, seed=0)
    assert result.download.completed
