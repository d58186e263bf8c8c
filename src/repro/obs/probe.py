"""The Probe: the per-simulator handle layers emit through.

Every :class:`~repro.sim.core.Simulator` owns one Probe (``sim.probe``),
so any component holding a simulator reference can publish without new
constructor plumbing.  The probe stamps each event with the simulated
time and a run identifier before putting it on the bus.

The emit idiom, used at every instrumented site::

    probe = self.sim.probe
    if probe.active:
        probe.emit(ChunkFetched(cid=..., ...))

With no subscribers ``probe.active`` is False and the event dataclass
is never even constructed.
"""

from __future__ import annotations

from repro.obs.bus import EventBus, Stamped
from repro.obs.events import ObsEvent


class Probe:
    """Stamps events with ``sim.now`` and a run id, then publishes."""

    __slots__ = ("sim", "bus", "run_id")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.bus = EventBus()
        self.run_id = "run"

    @property
    def active(self) -> bool:
        """True iff anything is listening (check before constructing)."""
        return self.bus.active

    def emit(self, event: ObsEvent) -> None:
        """Stamp and publish ``event`` (no-op with no subscribers)."""
        bus = self.bus
        if bus.active:
            bus.publish(Stamped(self.sim.now, self.run_id, event))

    def __repr__(self) -> str:
        return f"<Probe run_id={self.run_id!r} {self.bus!r}>"
