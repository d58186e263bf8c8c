"""The telemetry hub: thread-safe fan-out of live run telemetry.

A simulation run is single-threaded and synchronous; live consumers
(the terminal dashboard, the ``/live`` SSE endpoint) run on other
threads and must never slow it down or perturb it.  The
:class:`TelemetryHub` decouples them: producers call
:meth:`~TelemetryHub.publish` (a lock-free-on-the-hot-path append into
each subscriber's bounded queue, **never blocking**), and each
:class:`TelemetrySubscription` drains its own queue at its own pace.
A subscriber that falls behind loses items — explicitly, with a
per-subscription ``dropped`` counter surfaced through
:meth:`TelemetryHub.stats` — rather than ever applying backpressure to
the simulation.  A fixed-seed run therefore produces bit-identical
metrics with or without subscribers attached (asserted by the parity
tests).

Items are ``(topic, payload)`` pairs where ``payload`` is a
JSON-serialisable dict.  The conventional topics:

``gauge``
    One flight-recorder sample, forwarded off the event bus by
    :class:`GaugeFeed`: ``{"run", "t", "gauge", "v"}``.
``wide``
    One wide-event record (see :mod:`repro.obs.wide`), forwarded by
    the builder's hub sink.
``run``
    Run lifecycle: ``{"run", "state": "started"|"finished"|"failed",
    ...}`` published by the experiment runner (``failed`` carries the
    exception type as ``error``) and the parallel sweep driver.

Attach/detach is safe mid-run: subscription changes take a lock, but
``publish`` reads a snapshot, so a subscriber appearing or vanishing
between two events never corrupts delivery.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterator, Optional

from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample

#: Default bound on a subscription's queue.  Generous enough for a
#: dashboard refreshing a few times a second against a demo run, small
#: enough that a stuck consumer cannot hold a run's whole event volume.
DEFAULT_QUEUE_SIZE = 1024

#: Sentinel delivered to every subscriber when the hub closes.
_CLOSE = object()


class TelemetrySubscription:
    """One consumer's bounded view of the hub's traffic."""

    def __init__(
        self,
        hub: "TelemetryHub",
        maxsize: int = DEFAULT_QUEUE_SIZE,
        topics: Optional[set[str]] = None,
    ) -> None:
        self._hub = hub
        # ``SimpleQueue``'s put/get/qsize are single C calls (a
        # ``queue.Queue`` put is eight Python frames of lock and
        # condition handling, on the simulation's thread, per item); it
        # has no bound of its own, so ``_offer`` checks ``maxsize``.
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._maxsize = maxsize
        #: Restrict delivery to these topics (``None`` = everything).
        self.topics = set(topics) if topics is not None else None
        #: Items delivered into the queue.
        self.received = 0
        #: Items the hub discarded because this queue was full.
        self.dropped = 0
        #: True once the hub's close sentinel has been consumed.
        self.closed = False
        #: Set by the hub's close(): the sentinel itself can be lost
        #: to a full queue, but this flag cannot — the consumer
        #: notices it as soon as the backlog drains.
        self._close_flagged = False

    # -- producer side (hub only) ------------------------------------------

    def _offer(self, item) -> None:
        # Producers racing past the check can overshoot the bound by an
        # item each: it caps a stuck consumer's backlog, nothing more.
        if 0 < self._maxsize <= self._queue.qsize():
            self.dropped += 1
            return
        self._queue.put(item)
        if item is not _CLOSE:
            self.received += 1

    # -- consumer side ------------------------------------------------------

    def get(self, timeout: Optional[float] = None):
        """Next ``(topic, payload)``; ``None`` on timeout or close."""
        if self.closed:
            return None
        try:
            item = self._queue.get(timeout=timeout) if timeout is not None \
                else self._queue.get_nowait()
        except queue.Empty:
            if self._close_flagged:
                self.closed = True
            return None
        if item is _CLOSE:
            self.closed = True
            return None
        return item

    def drain(self) -> list:
        """Every currently-queued ``(topic, payload)``, oldest first."""
        items = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                if self._close_flagged:
                    self.closed = True
                return items
            if item is _CLOSE:
                self.closed = True
                return items
            items.append(item)

    def __iter__(self) -> Iterator:
        """Blocking iteration until the hub closes."""
        while True:
            item = self.get(timeout=0.5)
            if item is not None:
                yield item
            elif self.closed:
                return

    def close(self) -> None:
        """Detach from the hub (idempotent)."""
        self._hub.unsubscribe(self)


class TelemetryHub:
    """Thread-safe, never-blocking fan-out of telemetry items."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subs: tuple[TelemetrySubscription, ...] = ()
        self.published = 0
        self.closed = False

    # -- subscription management --------------------------------------------

    def subscribe(
        self,
        maxsize: int = DEFAULT_QUEUE_SIZE,
        topics: Optional[set[str]] = None,
    ) -> TelemetrySubscription:
        """Attach a new bounded subscriber (safe mid-run)."""
        sub = TelemetrySubscription(self, maxsize=maxsize, topics=topics)
        with self._lock:
            if self.closed:
                sub._offer(_CLOSE)
            self._subs = self._subs + (sub,)
        return sub

    def unsubscribe(self, sub: TelemetrySubscription) -> None:
        with self._lock:
            self._subs = tuple(s for s in self._subs if s is not sub)

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    # -- traffic -------------------------------------------------------------

    def publish(self, topic: str, payload: dict) -> None:
        """Offer ``(topic, payload)`` to every subscriber; never blocks."""
        subs = self._subs  # snapshot: publish never takes the lock
        if not subs:
            return
        self.published += 1
        item = (topic, payload)
        for sub in subs:
            if sub.topics is None or topic in sub.topics:
                sub._offer(item)

    def close(self) -> None:
        """Deliver the close sentinel to every subscriber.

        The sentinel wakes a blocked consumer immediately; if a
        subscriber's queue is full the sentinel is lost like any other
        item, so a flag is set first — the consumer notices it the
        moment its backlog drains, guaranteeing closure is never
        missed.
        """
        with self._lock:
            self.closed = True
            subs = self._subs
        for sub in subs:
            sub._close_flagged = True
            sub._offer(_CLOSE)

    def wait_closed(self, timeout: float = 3.0) -> bool:
        """Block until every subscriber detached (True) or ``timeout``.

        :meth:`close` only *signals*; consumers on other threads still
        need a beat to write their terminal frames (the SSE ``end``
        event) and unsubscribe.  Shutdown paths call this before
        letting the process exit so daemon consumer threads aren't
        killed mid-frame.
        """
        deadline = time.monotonic() + timeout
        while self._subs and time.monotonic() < deadline:
            time.sleep(0.01)
        return not self._subs

    def stats(self) -> dict:
        """Publish/drop accounting, per subscriber."""
        subs = self._subs
        return {
            "published": self.published,
            "subscribers": len(subs),
            "dropped": sum(s.dropped for s in subs),
            "queues": [
                {"received": s.received, "dropped": s.dropped,
                 "depth": s._queue.qsize()}
                for s in subs
            ],
        }

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"<TelemetryHub {state} subs={len(self._subs)} "
            f"published={self.published}>"
        )


class GaugeFeed:
    """Bus → hub bridge for flight-recorder gauge samples.

    Subscribes to :class:`~repro.obs.events.GaugeSample` only, so runs
    without the flight recorder pay nothing extra, and forwards each
    sample as a ``gauge`` item.  Forwarding is an in-memory queue
    append — it cannot block or reorder the simulation.
    """

    def __init__(self, hub: TelemetryHub) -> None:
        self.hub = hub
        self.forwarded = 0
        self._bus: Optional[EventBus] = None

    def attach(self, bus: EventBus) -> "GaugeFeed":
        self._bus = bus
        bus.subscribe(GaugeSample, self._on_sample)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(GaugeSample, self._on_sample)
            self._bus = None

    def _on_sample(self, stamped: Stamped) -> None:
        event = stamped.event
        self.forwarded += 1
        self.hub.publish("gauge", {
            "run": stamped.run_id,
            "t": stamped.time,
            "gauge": event.gauge,
            "v": event.value,
        })
