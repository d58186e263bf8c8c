"""Tests for generator-based processes."""

import pytest

from repro.sim import Interrupt, Process, Simulator, SimulationError


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)
        return "result"

    proc = sim.process(worker(sim))
    assert sim.run(until=proc) == "result"
    assert sim.now == 3.0


def test_process_requires_a_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_processes_interleave_by_time():
    sim = Simulator()
    log = []

    def worker(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.process(worker(sim, "fast", 1.0))
    sim.process(worker(sim, "slow", 2.0))
    sim.run()
    # At t=2.0 both fire; "slow" scheduled its timeout earlier (t=0 vs
    # t=1), so FIFO tie-breaking resumes it first.
    assert log == [
        (1.0, "fast"),
        (2.0, "slow"),
        (2.0, "fast"),
        (3.0, "fast"),
        (4.0, "slow"),
        (6.0, "slow"),
    ]


def test_exception_in_process_propagates_through_run_until():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner failure")

    proc = sim.process(worker(sim))
    with pytest.raises(ValueError, match="inner failure"):
        sim.run(until=proc)


def test_process_can_wait_on_another_process():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(2.0)
        return 10

    def outer(sim):
        value = yield sim.process(inner(sim))
        return value * 2

    proc = sim.process(outer(sim))
    assert sim.run(until=proc) == 20


def test_interrupt_delivers_cause():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)

    def attacker(sim, victim_proc):
        yield sim.timeout(5.0)
        victim_proc.interrupt("reason")

    victim_proc = sim.process(victim(sim))
    sim.process(attacker(sim, victim_proc))
    assert sim.run(until=victim_proc) == ("interrupted", "reason", 5.0)


def test_interrupted_process_can_keep_running():
    sim = Simulator()

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        return sim.now

    def attacker(sim, victim_proc):
        yield sim.timeout(5.0)
        victim_proc.interrupt()

    victim_proc = sim.process(victim(sim))
    sim.process(attacker(sim, victim_proc))
    assert sim.run(until=victim_proc) == 6.0


def test_interrupting_finished_process_raises():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)

    proc = sim.process(worker(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_process_cannot_interrupt_itself():
    sim = Simulator()
    failures = []

    def worker(sim):
        proc = sim.active_process
        try:
            proc.interrupt()
        except SimulationError:
            failures.append(True)
        yield sim.timeout(0.0)

    sim.process(worker(sim))
    sim.run()
    assert failures == [True]


def test_stale_target_event_after_interrupt_is_ignored():
    """The original waited-on event may still fire; it must not resume us twice."""
    sim = Simulator()
    resumed = []

    def victim(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            resumed.append(("interrupt", sim.now))
        yield sim.timeout(100.0)
        resumed.append(("late", sim.now))

    def attacker(sim, victim_proc):
        yield sim.timeout(5.0)
        victim_proc.interrupt()

    victim_proc = sim.process(victim(sim))
    sim.process(attacker(sim, victim_proc))
    sim.run()
    assert resumed == [("interrupt", 5.0), ("late", 105.0)]


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def worker(sim):
        yield 42

    proc = sim.process(worker(sim))
    with pytest.raises(SimulationError, match="non-event"):
        sim.run(until=proc)


def test_yielding_already_processed_event_continues_immediately():
    sim = Simulator()

    def worker(sim):
        timeout = sim.timeout(1.0, value="early")
        yield sim.timeout(5.0)
        value = yield timeout  # already processed by now
        return (value, sim.now)

    proc = sim.process(worker(sim))
    assert sim.run(until=proc) == ("early", 5.0)


def test_active_process_visible_inside_process():
    sim = Simulator()
    seen = []

    def worker(sim):
        seen.append(sim.active_process)
        yield sim.timeout(0.0)

    proc = sim.process(worker(sim))
    sim.run()
    assert seen == [proc]
    assert sim.active_process is None


def test_process_return_none_by_default():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)

    proc = sim.process(worker(sim))
    assert sim.run(until=proc) is None
