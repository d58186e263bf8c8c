"""Event loop and event primitives for the simulation kernel.

The kernel is intentionally small: a binary-heap event queue keyed on
``(time, priority, sequence)`` and an :class:`Event` type that carries
callbacks.  Processes (see :mod:`repro.sim.process`) are generators that
yield events; the simulator resumes them when the yielded event fires.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from repro.obs.probe import Probe

#: Scheduling priorities.  Lower values run earlier at the same timestamp.
URGENT = 0
NORMAL = 1

#: Lazily bound Timeout class (resolved on first ``Simulator.timeout``;
#: a module-level import would be circular).
_Timeout = None


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


PENDING = object()  #: sentinel: event value not yet set


class Event:
    """A happening at a point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it; once the simulator pops it off the queue
    it becomes *processed* and its callbacks run.  Callbacks receive the
    event itself.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_ok", "_scheduled", "_processed",
        "_pooled", "name",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        #: True for events from :meth:`Simulator.pooled_event`: the
        #: kernel recycles them onto the free list after their
        #: callbacks run.
        self._pooled = False
        self.name = name

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(
        self, value: Any = None, delay: float = 0.0, priority: int = NORMAL
    ) -> "Event":
        """Schedule the event to fire successfully after ``delay``.

        ``priority`` orders same-timestamp events (``URGENT`` runs
        before ``NORMAL``), mirroring :meth:`Simulator.schedule`.
        """
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        # Inlined Simulator.schedule: the extra call frame costs ~5% of
        # kernel events/s (bench_kernel_hotpath).  Keep them in sync.
        # Validate first, mutate after: a rejected call leaves the
        # event untriggered.
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative delay {delay!r}")
        if self._scheduled:
            raise SimulationError(f"event {self!r} already scheduled")
        self._ok = True
        self._value = value
        self._scheduled = True
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._queue, (sim._now + delay, priority, sim._seq, self))
        return self

    def fail(
        self,
        exception: BaseException,
        delay: float = 0.0,
        priority: int = NORMAL,
    ) -> "Event":
        """Schedule the event to fire as a failure carrying ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self.sim.schedule(self, delay, priority)  # failures are off the hot path
        self._ok = False  # only once scheduled: a rejected call changes nothing
        self._value = exception
        return self

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "scheduled" if self._scheduled
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Simulator:
    """The event loop; :attr:`now` starts at 0.0 seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        #: Heap of ``(when, priority, seq, event)`` and, from :meth:`call_at`,
        #: ``(when, priority, seq, None, callback, args, name)`` entries;
        #: ``seq`` is unique, so comparison stops before the fourth field.
        self._queue: list[tuple] = []
        self._seq = 0
        #: Places taken with :meth:`reserve_place` and not (yet) pushed.
        self._places_unpushed = 0
        self._active_process = None  # set by Process while running
        #: Instrumentation handle (see :mod:`repro.obs`): every layer
        #: holding a simulator reference publishes through this.
        self.probe = Probe(self)
        #: Optional :class:`repro.sim.profiler.SimProfiler`; when set,
        #: the kernel wall-clocks every step's callback batch.  Costs
        #: one ``is None`` check per step when off.
        self._profiler = None
        #: The processed event observers are shown for every
        #: :meth:`call_at` step, renamed per step: like a pooled event
        #: it is theirs only until the step ends.
        self._observed = observed = Event(self)
        observed._ok, observed.callbacks = True, None
        observed._scheduled = observed._processed = True
        #: Free list for :meth:`pooled_event`.
        self._event_pool: list[Event] = []
        #: Pool telemetry: acquisitions served from the free list vs.
        #: fresh allocations (read by the profiler and the benches).
        self.pool_reuses = 0
        self.pool_allocs = 0
        #: Forwarding-decision cache telemetry, incremented by every
        #: :class:`repro.xia.router.XIARouter` driven by this simulator
        #: (read by the profiler and the benches).
        self.fwd_cache_hits = 0
        self.fwd_cache_misses = 0
        #: The last transport session id :meth:`new_session_id` handed
        #: out: per simulator, so a scenario's ids (and its trace) do
        #: not depend on the scenarios run before it in the process.
        self._last_session_id = 0
        #: Total events popped and processed (heap-op counter; the
        #: push-side twin is :attr:`heap_pushes`).
        self.steps_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently executing, if any."""
        return self._active_process

    def new_session_id(self) -> int:
        """A transport session id unique within this simulator."""
        self._last_session_id += 1
        return self._last_session_id

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place a triggered event on the queue ``delay`` seconds ahead."""
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"negative delay {delay!r}")
        if event._scheduled:
            raise SimulationError(f"event {event!r} already scheduled")
        # Inlined in Event.succeed too — keep in sync.
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    @property
    def heap_pushes(self) -> int:
        """Total events ever pushed onto the queue (heap-op counter)."""
        return self._seq - self._places_unpushed

    def step(self) -> None:
        """Process exactly one event.

        This is the single-step (debugger/test) entry point; the hot
        path is the manually inlined copy of this body in :meth:`run`.
        Keep the two in sync.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        entry = heapq.heappop(self._queue)
        self._now = entry[0]
        event = entry[3]
        if event is None:  # a call_at entry: a plain call, no Event
            self._call_observed(entry)
            self.steps_processed += 1
            return
        callbacks = event.callbacks
        event.callbacks = None  # marks the event as being processed
        event._processed = True
        profiler = self._profiler
        if profiler is None:
            for callback in callbacks:
                callback(event)
        else:
            started = perf_counter()
            for callback in callbacks:
                callback(event)
            profiler.record_step(
                event, perf_counter() - started, len(self._queue)
            )
        self.steps_processed += 1
        if event._pooled:
            self._recycle(event)

    def _call_observed(self, entry: tuple) -> None:
        """A :meth:`call_at` step as :meth:`step` runs it (:meth:`run`
        holds an inlined copy): the profiler is shown :attr:`_observed`
        under the entry's name (value: its args), so
        ``event:arrival``/``event:cpu`` profile keys read as they
        would for a real event."""
        _when, _priority, _seq, _none, callback, args, name = entry
        profiler = self._profiler
        if profiler is None:
            callback(*args)
            return
        event = self._observed
        event.name = name
        event._value = args
        started = perf_counter()
        callback(*args)
        profiler.record_step(event, perf_counter() - started, len(self._queue))

    def _recycle(self, event: Event) -> None:
        """Reset a processed pooled event and return it to the free list."""
        event._value = PENDING
        event._ok = None
        event._scheduled = False
        event._processed = False
        event.callbacks = []
        self._event_pool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a timestamp, or an event fires.

        Returns the value of ``until`` when ``until`` is an event.
        """
        stop_at = float("inf")
        stop_is_timestamp = False
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: return its value immediately.
                return until.value if until.ok else _reraise(until.value)
            until.callbacks.append(_stop_simulation)
        elif until is not None:
            stop_at = float(until)
            stop_is_timestamp = True
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be in the past (now={self._now})"
                )

        # The kernel hot loop: step() inlined, with the queue, pool and
        # heappop bound to locals.  A million-event run spends most of
        # its wall-clock right here, so the per-step overhead beyond
        # the callbacks themselves must stay at a handful of opcodes.
        queue = self._queue
        pool = self._event_pool
        heappop = heapq.heappop
        steps = 0
        try:
            while queue and queue[0][0] <= stop_at:
                entry = heappop(queue)
                self._now = entry[0]
                event = entry[3]
                if event is None:  # a call_at entry: a plain call
                    profiler = self._profiler
                    if profiler is None:
                        entry[4](*entry[5])
                    else:
                        event = self._observed
                        event.name = entry[6]
                        event._value = args = entry[5]
                        started = perf_counter()
                        entry[4](*args)
                        profiler.record_step(
                            event, perf_counter() - started, len(queue)
                        )
                    steps += 1
                    continue
                callbacks = event.callbacks
                event.callbacks = None  # marks the event as being processed
                event._processed = True
                profiler = self._profiler
                if profiler is None:
                    for callback in callbacks:
                        callback(event)
                else:
                    started = perf_counter()
                    for callback in callbacks:
                        callback(event)
                    profiler.record_step(
                        event, perf_counter() - started, len(queue)
                    )
                steps += 1
                if event._pooled:
                    event._value = PENDING
                    event._ok = None
                    event._scheduled = False
                    event._processed = False
                    event.callbacks = []
                    pool.append(event)
        except StopSimulation as stop:
            steps += 1  # the step whose callback stopped the run did run
            return stop.value
        finally:
            if steps:
                self.steps_processed += steps
        if stop_is_timestamp:
            self._now = stop_at
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError("run() finished but the until-event never fired")
        return None

    # -- event factories -----------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def call_at(
        self,
        when: float,
        callback: Callable[..., None],
        args: tuple = (),
        name: str = "",
        priority: int = NORMAL,
        place: Optional[int] = None,
    ) -> None:
        """Run ``callback(*args)`` at absolute time ``when``: fire and forget.

        The one scheduling primitive of the per-packet path (a link's
        ``arrival`` and on-demand ``tx-done``, a device's ``cpu``, a
        sender's ``rto`` and ``sender-wakeup``, process bootstrap).  No
        :class:`Event` is involved: the heap entry carries the callable
        and its arguments, pushed at exactly the float ``when`` — not
        at ``now + (when - now)`` — and the kernel step is the plain
        call.  It orders like any other event: by ``(when, priority,
        push order)``, or, with a ``place`` from :meth:`reserve_place`,
        as if it had been pushed when the place was taken.  ``name``
        labels the step for :meth:`pending` and the profiler (see
        :meth:`_call_observed`).
        """
        if not when >= self._now:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"time {when!r} is in the past (now={self._now!r})")
        if place is None:
            self._seq += 1
            place = self._seq
        else:
            self._places_unpushed -= 1
        heapq.heappush(
            self._queue, (when, priority, place, None, callback, args, name)
        )

    def pending(self, name: str) -> list[float]:
        """Fire times of the queued steps named ``name``, ascending
        (a debug/test accessor: linear in the queue length)."""
        return sorted(
            entry[0] for entry in self._queue
            if (entry[6] if entry[3] is None else entry[3].name) == name
        )

    def reserve_place(self) -> int:
        """Take the next place in push order without pushing anything.

        Events at one timestamp and priority fire in push order.  A
        caller that may need an event *later* but wants it to fire as
        if pushed *now* (a sender that learns only from a later ACK
        that it has something to send when its CPU frees up) takes its
        place here and hands it to :meth:`call_at` — at most once — if
        the need arises.  An unused place costs nothing.
        """
        self._seq += 1
        self._places_unpushed += 1
        return self._seq

    def pooled_event(self, name: str = "") -> Event:
        """An untriggered :class:`Event` drawn from the kernel free list.

        For the rare fire-and-forget caller that needs an event —
        :meth:`Process.interrupt` arms one with ``fail``; everything
        else uses :meth:`call_at`, which needs none.  The kernel
        resets and reuses the object right after its callbacks run, so
        holding a reference past processing — yielding it from a
        process, storing it, chaining it into AnyOf — is
        undefined behaviour.
        """
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.name = name
            self.pool_reuses += 1
            return event
        event = Event(self, name=name)
        event._pooled = True
        self.pool_allocs += 1
        return event

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An event that fires ``delay`` seconds from now."""
        global _Timeout
        if _Timeout is None:
            from repro.sim.primitives import Timeout as _Timeout  # noqa: PLW0603
        return _Timeout(self, delay, value=value)

    def process(self, generator) -> "Event":
        """Start ``generator`` as a process; returns its Process event."""
        from repro.sim.process import Process

        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> "Event":
        from repro.sim.primitives import AnyOf

        return AnyOf(self, list(events))

    def __repr__(self) -> str:
        return f"<Simulator now={self._now:.6f} pending={len(self._queue)}>"


def _stop_simulation(event: Event) -> None:
    if event.ok:
        raise StopSimulation(event.value)
    raise event.value


def _reraise(exc: BaseException) -> Any:
    raise exc
