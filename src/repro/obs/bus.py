"""A typed, topic-keyed publish/subscribe event bus.

Topics are the event *classes* from :mod:`repro.obs.events`.  The bus
is deliberately synchronous and allocation-free on the unsubscribed
path: ``publish`` is only ever called behind a ``bus.active`` check,
and ``active`` is a plain attribute maintained on (un)subscribe, so a
run with no subscribers never constructs an event object and never
enters ``publish``.

Delivery order is deterministic: for each published event, handlers
subscribed to that event's type run first (in subscription order),
then wildcard handlers (in subscription order).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.obs.events import ObsEvent


class Stamped(NamedTuple):
    """An event as it travels the bus: payload + time + run identity.

    Immutable, like the events it carries (the auditor renders evidence
    from retained ones long after delivery); a tuple because one is
    built per published event and per replayed trace line.
    """

    time: float
    run_id: str
    event: ObsEvent


Handler = Callable[[Stamped], None]


class EventBus:
    """Topic-keyed pub/sub over :class:`~repro.obs.events.ObsEvent` types."""

    __slots__ = ("_by_topic", "_wildcard", "active")

    def __init__(self) -> None:
        self._by_topic: dict[type[ObsEvent], list[Handler]] = {}
        self._wildcard: list[Handler] = []
        #: True iff at least one handler is attached.  Publishers read
        #: this before constructing events (the zero-cost fast path).
        self.active = False

    # -- subscription ------------------------------------------------------

    def subscribe(self, topic: type[ObsEvent], handler: Handler) -> Handler:
        """Deliver events of exactly ``topic`` to ``handler``."""
        if not (isinstance(topic, type) and issubclass(topic, ObsEvent)):
            raise TypeError(f"topic must be an ObsEvent subclass, got {topic!r}")
        self._by_topic.setdefault(topic, []).append(handler)
        self.active = True
        return handler

    def subscribe_all(self, handler: Handler) -> Handler:
        """Deliver every published event to ``handler``."""
        self._wildcard.append(handler)
        self.active = True
        return handler

    def unsubscribe(self, topic: type[ObsEvent], handler: Handler) -> None:
        handlers = self._by_topic.get(topic, [])
        if handler in handlers:
            handlers.remove(handler)
            if not handlers:
                del self._by_topic[topic]
        self._refresh_active()

    def unsubscribe_all(self, handler: Handler) -> None:
        if handler in self._wildcard:
            self._wildcard.remove(handler)
        self._refresh_active()

    def clear(self) -> None:
        """Detach every handler."""
        self._by_topic.clear()
        self._wildcard.clear()
        self.active = False

    def _refresh_active(self) -> None:
        self.active = bool(self._by_topic or self._wildcard)

    @property
    def subscriber_count(self) -> int:
        return sum(len(h) for h in self._by_topic.values()) + len(self._wildcard)

    # -- publication -------------------------------------------------------

    def publish(self, stamped: Stamped) -> None:
        """Deliver ``stamped`` synchronously to matching handlers."""
        if not self.active:
            return
        for handler in self._by_topic.get(type(stamped.event), ()):
            handler(stamped)
        for handler in self._wildcard:
            handler(stamped)

    def __repr__(self) -> str:
        return (
            f"<EventBus {self.subscriber_count} subscribers, "
            f"{len(self._by_topic)} topics>"
        )
