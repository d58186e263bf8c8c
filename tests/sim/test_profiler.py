"""Kernel profiler: wall-clock attribution, heap counters, sampling."""

import pytest

from repro.sim import SimProfiler, Simulator


def ticker(sim, n, delay=1.0):
    for _ in range(n):
        yield sim.timeout(delay)


def test_profiler_attributes_steps_to_handler_classes():
    sim = Simulator()
    profiler = SimProfiler(sim).install()
    sim.process(ticker(sim, 5))
    sim.run()
    profiler.uninstall()

    assert profiler.steps > 0
    keys = {row.key for row in profiler.stats()}
    assert "process:ticker" in keys
    by_key = {row.key: row for row in profiler.stats()}
    # init + 5 timeouts resume the generator; the 5th return pops the
    # Process event itself.
    assert by_key["process:ticker"].calls == 1
    assert by_key["event:timeout"].calls == 5
    assert all(row.total_s >= 0 for row in profiler.stats())


def test_heap_counters_balance():
    sim = Simulator()
    profiler = SimProfiler(sim).install()
    sim.process(ticker(sim, 3))
    sim.run()
    assert profiler.heap_pops == profiler.steps
    # Everything pushed while profiled was eventually popped.
    assert profiler.heap_pushes == profiler.heap_pops
    assert sim.heap_pushes == profiler.heap_pushes
    assert profiler.max_depth >= 1
    assert profiler.mean_depth >= 0


def test_profiler_uninstall_stops_collection():
    sim = Simulator()
    profiler = SimProfiler(sim).install()
    sim.process(ticker(sim, 1))
    sim.run()
    steps = profiler.steps
    profiler.uninstall()
    sim.process(ticker(sim, 3))
    sim.run()
    assert profiler.steps == steps


def test_only_one_profiler_at_a_time():
    sim = Simulator()
    SimProfiler(sim).install()
    with pytest.raises(RuntimeError):
        SimProfiler(sim).install()


def test_render_is_a_table():
    sim = Simulator()
    profiler = SimProfiler(sim).install()
    sim.process(ticker(sim, 2))
    sim.run()
    text = profiler.render()
    assert "handler" in text and "process:ticker" in text
    assert f"steps={profiler.steps}" in text


def test_unprofiled_kernel_has_no_profiler_attribute_set():
    sim = Simulator()
    assert sim._profiler is None
    sim.process(ticker(sim, 2))
    sim.run()
    assert sim._profiler is None
