"""Tests for the kernel event free list and scheduling priorities."""

import pytest

from repro.sim import Simulator
from repro.sim.core import NORMAL, URGENT, SimulationError


def test_pooled_event_is_recycled_and_reused():
    sim = Simulator()
    first = sim.pooled_event("one")
    first.succeed(value=1)
    sim.run()
    # After its callbacks ran, the object went back to the free list:
    # the next acquisition hands out the same object, reset.
    second = sim.pooled_event("two")
    assert second is first
    assert second.name == "two"
    assert not second.triggered
    assert second.callbacks == []


def test_pool_counters_track_allocs_and_reuses():
    sim = Simulator()
    assert (sim.pool_allocs, sim.pool_reuses) == (0, 0)
    for _ in range(3):
        event = sim.pooled_event()
        event.succeed()
        sim.run()
    assert sim.pool_allocs == 1
    assert sim.pool_reuses == 2


def test_steps_processed_counts_every_pop():
    sim = Simulator()
    for _ in range(4):
        sim.pooled_event().succeed()
    sim.run()
    assert sim.steps_processed == 4
    assert sim.heap_pushes == 4


def test_pooled_events_carry_values():
    sim = Simulator()
    seen = []
    for index in range(3):
        event = sim.pooled_event("carry")
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed(value=index, delay=float(index))
    sim.run()
    assert seen == [0, 1, 2]


def test_succeed_priority_orders_same_timestamp_events():
    sim = Simulator()
    order = []
    normal = sim.event("normal")
    normal.callbacks.append(lambda ev: order.append("normal"))
    normal.succeed(delay=1.0, priority=NORMAL)
    urgent = sim.event("urgent")
    urgent.callbacks.append(lambda ev: order.append("urgent"))
    urgent.succeed(delay=1.0, priority=URGENT)
    sim.run()
    # Scheduled after, runs first: URGENT beats NORMAL at equal time.
    assert order == ["urgent", "normal"]


def test_fail_priority_orders_same_timestamp_events():
    sim = Simulator()
    order = []
    normal = sim.event("normal")
    normal.callbacks.append(lambda ev: order.append("normal"))
    normal.succeed(delay=1.0)

    failing = sim.event("failing")
    failing.callbacks.append(lambda ev: order.append("urgent-failure"))
    failing.fail(RuntimeError("x"), delay=1.0, priority=URGENT)
    sim.run()
    assert order == ["urgent-failure", "normal"]


def test_triggered_pooled_event_rejects_double_trigger():
    sim = Simulator()
    event = sim.pooled_event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_succeed_at_fires_at_the_exact_absolute_time():
    """No ``now + (when - now)`` round trip: the float arrives intact."""
    sim = Simulator(initial_time=0.1)
    when = 0.1 + 0.2 + 0.7  # not representable as 0.1 + (when - 0.1)
    fired = []
    event = sim.pooled_event("abs")
    event.callbacks.append(lambda ev: fired.append((sim.now, ev.value)))
    event.succeed_at("v", when)
    sim.run()
    assert fired == [(when, "v")]
    assert sim.pool_reuses == 0 and len(sim._event_pool) == 1  # recycled


def test_succeed_at_orders_with_relative_triggers_and_priorities():
    sim = Simulator()
    order = []
    for name, trigger in (
        ("relative", lambda ev: ev.succeed(delay=1.0)),
        ("absolute", lambda ev: ev.succeed_at(None, 1.0)),
        ("urgent", lambda ev: ev.succeed_at(None, 1.0, priority=URGENT)),
    ):
        event = sim.event(name)
        event.callbacks.append(lambda ev: order.append(ev.name))
        trigger(event)
    sim.run()
    assert order == ["urgent", "relative", "absolute"]


def test_succeed_at_rejects_the_past_and_double_triggers():
    sim = Simulator(initial_time=5.0)
    with pytest.raises(ValueError):
        sim.event().succeed_at(None, 4.0)
    event = sim.event()
    event.succeed_at(None, 5.0)  # "now" is allowed
    with pytest.raises(SimulationError):
        event.succeed_at(None, 6.0)
