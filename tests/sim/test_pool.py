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


# -- call_at: the one-call fire-and-forget primitive ---------------------------


def test_call_at_fires_at_the_exact_absolute_time_with_its_value():
    sim = Simulator()
    sim.run(until=0.1)
    when = 0.1 + 0.2 + 0.7  # not representable as 0.1 + (when - 0.1)
    fired = []
    sim.call_at(when, lambda *args: fired.append((sim.now, args)),
                ("v", 2), "abs")
    assert sim.pending("abs") == [when]
    sim.run()
    assert fired == [(when, ("v", 2))]
    assert sim.pending("abs") == []


def test_call_at_rejects_the_past_and_takes_nothing_from_the_pool():
    sim = Simulator()
    sim.run(until=5.0)
    before = (sim.pool_allocs, sim.pool_reuses, sim.heap_pushes)
    steps = sim.steps_processed
    with pytest.raises(ValueError):
        sim.call_at(4.0, lambda: None)
    assert (sim.pool_allocs, sim.pool_reuses, sim.heap_pushes) == before
    sim.call_at(5.0, lambda: None)  # "now" is allowed
    sim.run()
    assert sim.steps_processed == steps + 1


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.call_at(float("nan"), lambda: None),
], ids=["call_at"])
def test_a_nan_time_is_rejected_before_it_can_corrupt_the_heap(schedule):
    """``nan < now`` is False, so a ``when < now`` guard lets NaN in —
    and a NaN key compares False both ways, breaking heap order."""
    sim = Simulator()
    fired = []
    sim.call_at(2.0, fired.append, (2.0,))
    with pytest.raises(ValueError):
        schedule(sim)
    sim.call_at(1.0, fired.append, (1.0,))
    assert sim.heap_pushes == 2  # the rejected call left no trace
    sim.run()
    assert fired == [1.0, 2.0]


def test_call_at_is_fifo_with_succeed_scheduled_events_at_equal_time():
    sim = Simulator()
    order = []
    note = lambda ev: order.append(ev.name)  # noqa: E731
    first = sim.event("succeed-1")
    first.callbacks.append(note)
    first.succeed(delay=1.0)
    sim.call_at(1.0, order.append, ("call_at-2",))
    third = sim.event("succeed-3")
    third.callbacks.append(note)
    third.succeed(delay=1.0)
    sim.call_at(1.0, order.append, ("call_at-4",))
    sim.run()
    assert order == ["succeed-1", "call_at-2", "succeed-3", "call_at-4"]


def test_call_at_urgent_runs_before_normal_at_equal_time():
    sim = Simulator()
    order = []
    sim.call_at(1.0, order.append, ("normal",))
    sim.call_at(1.0, order.append, ("urgent",), priority=URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def test_call_at_takes_nothing_from_the_pool():
    sim = Simulator()
    seen = []
    for index in range(3):
        sim.call_at(float(index), seen.append, (index,))
        sim.run()
    # The callback got its argument, not an event: there is none.
    assert seen == [0, 1, 2]
    assert (sim.pool_allocs, sim.pool_reuses) == (0, 0)
    assert sim._event_pool == []
    assert sim.heap_pushes == sim.steps_processed == 3
    # The free list serves pooled_event alone.
    handle = sim.pooled_event("handle")
    assert (sim.pool_allocs, sim.pool_reuses) == (1, 0)
    handle.succeed()
    sim.call_at(3.0, seen.append, (3,))
    sim.run()
    assert sim.pooled_event("again") is handle
    assert (sim.pool_allocs, sim.pool_reuses) == (1, 1)


def take_place(sim):
    """The next place in push order, not pushed (``call_at``'s
    ``place``; the sender pump takes its pace place so)."""
    sim._seq += 1
    sim._places_unpushed += 1
    return sim._seq


def test_reserved_place_orders_a_later_push_as_if_pushed_then():
    sim = Simulator()
    order = []
    note = order.append
    sim.call_at(1.0, note, ("before",))
    place = take_place(sim)
    unused = take_place(sim)
    sim.call_at(1.0, note, ("after",))
    assert sim.heap_pushes == 2  # places taken are not pushes...
    sim.call_at(1.0, note, ("reserved",), place=place)
    assert sim.heap_pushes == 3  # ...until used
    sim.call_at(0.5, note, ("earlier",), place=None)
    sim.run()
    assert order == ["earlier", "before", "reserved", "after"]
    assert unused > place and sim.heap_pushes == sim.steps_processed == 4


def test_observers_are_shown_a_named_event_for_call_at_steps():
    """The profiler is handed an Event; for a ``call_at`` step the
    kernel shows it one under the step's name, so profile keys read as
    before — through ``step()`` and through ``run()``."""
    from repro.sim.profiler import SimProfiler

    sim = Simulator()
    got = []
    sim.call_at(1.0, lambda *args: got.append(args), ("p", 1), "arrival")
    sim.run()
    assert got == [("p", 1)]
    with SimProfiler(sim) as profiler:
        sim.call_at(2.0, got.append, ("q",), "cpu")
        sim.step()
    assert profiler.report()["wall.event:cpu.calls"] == 1
    other = Simulator()
    with SimProfiler(other) as profiler:  # run()'s inlined profiler path
        other.call_at(1.0, got.append, ("r",), "tx-done")
        other.call_at(1.0, got.append, ("s",), "tx-done")
        other.run()
    assert profiler.report()["wall.event:tx-done.calls"] == 2
    assert got[-3:] == ["q", "r", "s"] and sim.steps_processed == 2
    assert (sim.pool_allocs, sim.pool_reuses) == (0, 0)
