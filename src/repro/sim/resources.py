"""Shared resources: capacity-limited resources, stores, containers.

These follow the SimPy idioms: ``request()``/``release()`` pairs return
events a process yields on, and ``with`` blocks are supported for
resources.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sim.core import Event, Simulator


class _Request(Event):
    """A pending resource acquisition; usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim, name="request")
        self.resource = resource

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._users: list[_Request] = []
        self._waiting: Deque[_Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> _Request:
        """Acquire a slot; yield the returned event to wait for it."""
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: _Request) -> None:
        """Give a slot back and grant it to the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted request is a cancel.
            self._cancel(request)
            return
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()

    def _cancel(self, request: _Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass


class Store:
    """An unbounded-or-bounded FIFO queue of Python objects."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    @property
    def items(self) -> list[Any]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Add ``item``; the returned event fires once it is stored."""
        event = Event(self.sim, name="store-put")
        if len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append((event, item))
        return event

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Remove and return the first item (matching ``predicate``)."""
        event = Event(self.sim, name="store-get")
        item = self._pop_matching(predicate)
        if item is not _NOTHING:
            event.succeed(item)
            self._serve_putters()
        else:
            self._getters.append((event, predicate))
        return event

    def _pop_matching(self, predicate):
        if predicate is None:
            if self._items:
                return self._items.popleft()
            return _NOTHING
        for index, item in enumerate(self._items):
            if predicate(item):
                del self._items[index]
                return item
        return _NOTHING

    def _serve_getters(self) -> None:
        served = True
        while served and self._getters:
            served = False
            for index, (event, predicate) in enumerate(self._getters):
                item = self._pop_matching(predicate)
                if item is not _NOTHING:
                    del self._getters[index]
                    event.succeed(item)
                    served = True
                    break

    def _serve_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()
        if self._putters:
            return
        self._serve_getters()


_NOTHING = object()


class Container:
    """A continuous quantity (e.g. bytes of buffer) with put/get."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        initial: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= initial <= capacity:
            raise ValueError("initial level must lie within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = float(initial)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.sim, name="container-put")
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be non-negative")
        event = Event(self.sim, name="container-get")
        self._getters.append((event, amount))
        self._settle()
        return event

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progressed = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progressed = True
