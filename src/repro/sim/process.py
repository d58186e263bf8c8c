"""Generator-based processes.

A process wraps a generator that yields :class:`~repro.sim.core.Event`
instances.  When a yielded event fires, the process resumes with the
event's value (or the event's exception is thrown into the generator).
A :class:`Process` is itself an event that fires when the generator
returns, carrying the generator's return value.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Generator, Optional

from repro.obs.events import ProcessFailed
from repro.sim.core import Event, SimulationError, Simulator, URGENT


#: What a new process first resumes on: success, carrying ``None``.
_BOOTSTRAP = SimpleNamespace(_ok=True, _value=None)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class Process(Event):
    """A running generator, resumable on events, itself an event."""

    __slots__ = ("_generator", "_target")

    def __init__(self, sim: Simulator, generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim, name=getattr(generator, "__name__", ""))
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick the process off via an immediate, fire-and-forget step.
        sim.call_at(sim._now, self._resume, (_BOOTSTRAP,), "process-init", URGENT)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if self.triggered:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self.sim.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = self.sim.pooled_event("interrupt")
        interrupt_event.callbacks.append(self._resume_interrupt)
        interrupt_event.fail(Interrupt(cause), priority=URGENT)

    # -- internal --------------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if self.triggered:
            return  # process ended before the interrupt was delivered
        # Detach from whatever we were waiting on; the target may fire
        # later, which must then be ignored.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        active_before = self.sim._active_process
        self.sim._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        yielded = self._generator.send(event._value)
                    else:
                        yielded = self._generator.throw(event._value)
                except StopIteration as stop:
                    self.succeed(stop.value)
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    probe = self.sim.probe
                    if probe.active:
                        probe.emit(
                            ProcessFailed(
                                process=self.name or "process", error=repr(exc)
                            )
                        )
                    self.fail(exc)
                    return

                if not isinstance(yielded, Event):
                    msg = f"process yielded a non-event: {yielded!r}"
                    event = Event(self.sim, name="bad-yield")
                    event._ok = False
                    event._value = SimulationError(msg)
                    continue
                if yielded.sim is not self.sim:
                    raise SimulationError("yielded an event from a different simulator")

                if yielded.callbacks is not None:
                    # Not yet processed: wait for it.
                    yielded.callbacks.append(self._resume)
                    self._target = yielded
                    return
                # Already processed: continue immediately with its outcome.
                event = yielded
        finally:
            self.sim._active_process = active_before
