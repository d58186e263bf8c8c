"""Tests for Timeout / AnyOf / Condition."""

import pytest

from repro.sim import AnyOf, Simulator


def test_timeout_fires_at_delay_with_value():
    sim = Simulator()
    assert sim.run(until=sim.timeout(2.5, value="x")) == "x"
    assert sim.now == 2.5


def test_zero_delay_timeout_fires_immediately():
    sim = Simulator()
    sim.run(until=sim.timeout(0.0))
    assert sim.now == 0.0


def test_any_of_fires_on_first_event():
    sim = Simulator()

    def waiter(sim):
        early = sim.timeout(1.0, "early")
        late = sim.timeout(9.0, "late")
        fired = yield sim.any_of([early, late])
        return (sim.now, list(fired.values()))

    proc = sim.process(waiter(sim))
    assert sim.run(until=proc) == (1.0, ["early"])


def test_any_of_empty_list_fires_immediately():
    sim = Simulator()

    def waiter(sim):
        fired = yield sim.any_of([])
        return fired

    proc = sim.process(waiter(sim))
    assert sim.run(until=proc) == {}


def test_condition_value_maps_events_to_values():
    sim = Simulator()

    def waiter(sim):
        a = sim.timeout(1.0, "va")
        b = sim.timeout(2.0, "vb")
        yield sim.timeout(3.0)
        fired = yield sim.any_of([a, b])
        return fired[a], fired[b]

    proc = sim.process(waiter(sim))
    assert sim.run(until=proc) == ("va", "vb")


def test_condition_with_already_processed_events():
    sim = Simulator()

    def waiter(sim):
        done = sim.timeout(1.0, "done")
        yield sim.timeout(5.0)
        fired = yield sim.any_of([done])
        return (sim.now, fired[done])

    proc = sim.process(waiter(sim))
    assert sim.run(until=proc) == (5.0, "done")


def test_condition_fails_when_constituent_fails():
    sim = Simulator()

    def waiter(sim):
        bad = sim.event()
        bad.fail(RuntimeError("constituent failed"), delay=1.0)
        good = sim.timeout(5.0)
        yield sim.any_of([good, bad])

    proc = sim.process(waiter(sim))
    with pytest.raises(RuntimeError, match="constituent failed"):
        sim.run(until=proc)


def test_mixed_simulator_events_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    with pytest.raises(ValueError):
        AnyOf(sim_a, [sim_a.timeout(1.0), sim_b.timeout(1.0)])


def test_any_of_result_excludes_unfired_events():
    sim = Simulator()

    def waiter(sim):
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(50.0, "slow")
        fired = yield AnyOf(sim, [fast, slow])
        assert slow not in fired
        return fired[fast]

    proc = sim.process(waiter(sim))
    assert sim.run(until=proc) == "fast"
