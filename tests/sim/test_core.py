"""Tests for the event loop and Event primitives."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.core import Event, NORMAL, URGENT


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_run_empty_queue_returns_none():
    sim = Simulator()
    assert sim.run() is None
    assert sim.now == 0.0


def test_run_until_timestamp_advances_clock():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_timestamp_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        event = sim.event()
        event.callbacks.append(lambda ev, d=delay: order.append(d))
        event.succeed(delay=delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for label in "abc":
        event = sim.event()
        event.callbacks.append(lambda ev, s=label: order.append(s))
        event.succeed(delay=1.0)
    sim.run()
    assert order == ["a", "b", "c"]


def test_urgent_priority_preempts_normal():
    sim = Simulator()
    order = []
    normal = sim.event()
    normal.callbacks.append(lambda ev: order.append("normal"))
    normal._ok = True
    normal._value = None
    sim.schedule(normal, delay=1.0, priority=NORMAL)
    urgent = sim.event()
    urgent.callbacks.append(lambda ev: order.append("urgent"))
    urgent._ok = True
    urgent._value = None
    sim.schedule(urgent, delay=1.0, priority=URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


BAD_DELAYS = [-1.0, float("nan")]


@pytest.mark.parametrize("delay", BAD_DELAYS, ids=["negative", "nan"])
@pytest.mark.parametrize("trigger", [
    lambda sim, event, delay: sim.timeout(delay),
    lambda sim, event, delay: event.succeed(1, delay=delay),
    lambda sim, event, delay: event.fail(RuntimeError("x"), delay=delay),
    lambda sim, event, delay: sim.schedule(event, delay),
], ids=["timeout", "succeed", "fail", "schedule"])
def test_a_bad_delay_is_rejected_and_leaves_no_trace(trigger, delay):
    """``nan < 0`` is False, so a ``delay < 0`` guard lets NaN onto the
    heap, where a key that compares False both ways breaks the order;
    and a call that is going to raise must not trigger the event first
    (a waiter would hang and a retry raise "already triggered")."""
    sim = Simulator()
    fired = []
    sim.call_at(2.0, fired.append, (2.0,))
    event = sim.event()
    event.callbacks.append(lambda ev: fired.append(ev.value))
    with pytest.raises(ValueError):
        trigger(sim, event, delay)
    assert sim.heap_pushes == 1 and not event.triggered
    sim.call_at(1.0, fired.append, (1.0,))
    event.succeed("retry", delay=1.5)  # the event is still usable
    sim.run()
    assert fired == [1.0, "retry", 2.0]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("x"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_fail_requires_an_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_run_until_event_returns_value():
    sim = Simulator()
    assert sim.run(until=sim.timeout(2.0, value="payload")) == "payload"
    assert sim.now == 2.0


def test_run_until_failed_event_raises():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom"), delay=1.0)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=event)


def test_run_until_already_processed_event_returns_immediately():
    sim = Simulator()
    event = sim.timeout(1.0, value="v")
    sim.run()
    assert sim.run(until=event) == "v"


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    event = sim.event()  # never triggered
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="never fired"):
        sim.run(until=event)


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_clock_never_goes_backwards():
    sim = Simulator()
    times = []

    def watcher(sim):
        for _ in range(5):
            yield sim.timeout(1.0)
            times.append(sim.now)

    sim.process(watcher(sim))
    sim.run()
    assert times == sorted(times)


def test_schedule_same_event_twice_rejected():
    sim = Simulator()
    event = sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.schedule(event)


def test_callbacks_see_processed_event():
    sim = Simulator()
    seen = {}
    event = sim.timeout(1.0, value=7)
    event.callbacks.append(
        lambda ev: seen.update(processed=ev.processed, value=ev.value)
    )
    sim.run()
    assert seen == {"processed": True, "value": 7}


def test_repr_mentions_state():
    sim = Simulator()
    event = sim.event("my-event")
    assert "pending" in repr(event)
    event.succeed()
    assert "scheduled" in repr(event) or "triggered" in repr(event)
    sim.run()
    assert "processed" in repr(event)
