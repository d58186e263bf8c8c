"""Discrete-event simulation kernel.

This package is a self-contained, generator-based discrete-event
simulator in the style of SimPy, built from scratch for this
reproduction.  Every other subsystem (network links, transports, the
SoftStage control plane) is expressed as processes scheduled by a
:class:`Simulator`.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def hello(sim):
        yield sim.timeout(1.0)
        print("hello at", sim.now)

    sim.process(hello(sim))
    sim.run()
"""

from repro.sim.core import (
    Event,
    Simulator,
    SimulationError,
    StopSimulation,
)
from repro.sim.process import Interrupt, Process
from repro.sim.primitives import AnyOf, Condition, Timeout
from repro.sim.rng import RandomStreams
from repro.sim.profiler import SimProfiler

__all__ = [
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimProfiler",
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "Timeout",
]
