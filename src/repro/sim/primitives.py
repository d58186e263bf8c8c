"""Composite and timed events: timeouts, AnyOf, conditions."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.sim.core import Event, Simulator


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        self._ok = True
        self._value = value
        sim.schedule(self, delay=delay)


class Condition(Event):
    """Fires when ``evaluate(events, n_fired)`` returns True.

    The value is a dict mapping each *fired* constituent event to its
    value, in firing order.
    """

    __slots__ = ("_events", "_evaluate", "_fired_count")

    def __init__(
        self,
        sim: Simulator,
        evaluate: Callable[[Sequence[Event], int], bool],
        events: Sequence[Event],
    ) -> None:
        super().__init__(sim, name=evaluate.__name__)
        self._events = tuple(events)
        self._evaluate = evaluate
        self._fired_count = 0

        for event in self._events:
            if event.sim is not sim:
                raise ValueError("all events must belong to the same simulator")

        if not self._events:
            self.succeed({})
            return

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict[Event, Any]:
        return {
            event: event.value
            for event in self._events
            if event.processed and event.ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._fired_count += 1
        if not event._ok:
            self.fail(event._value)
        elif self._evaluate(self._events, self._fired_count):
            self.succeed(self._collect_values())

    @staticmethod
    def any_event(events: Sequence[Event], count: int) -> bool:
        return count > 0 or not events


class AnyOf(Condition):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def __init__(self, sim: Simulator, events: Sequence[Event]) -> None:
        super().__init__(sim, Condition.any_event, events)
