"""Point-to-point links with serialization, delay, loss and queues.

A :class:`Link` is full duplex: it owns two :class:`Port` objects (one
per endpoint) and two independent :class:`LinkDirection` pipes.  A port
belongs to a device; sending on a port feeds the outgoing pipe, which
serializes packets at the link bandwidth, applies the loss model, waits
the propagation delay and finally hands the packet to the peer port's
device.

Serialization is arithmetic, not an event per packet: a
:class:`Medium` remembers until when it is busy, a transmit start
schedules the packet's ``arrival`` directly at ``tx_end + delay``, and
a ``tx-done`` hand-over event exists only when someone waits for the
medium at ``tx_end`` (or a frame's link-layer recovery gave up and its
fate is booked there).

**The push rule.**  The ``arrival`` and ``tx-done`` steps are pushed
here, not through :meth:`repro.sim.core.Simulator.call_at`: each push
takes the next place (``sim._seq += 1``) and pushes exactly the entry
``call_at`` would, ``(when, NORMAL, place, None, callback, args,
name)``, saving its frame on every packet.  ``call_at``'s ``when >=
now`` check is skipped because each ``when`` is at or after now by
construction: a transmit end is now plus an airtime, an arrival that
plus a delay, and a hand-over for a busy medium its ``busy_until``.
``Device.receive`` pushes its ``cpu`` step the same way;
``tests/net/test_push_audit.py`` checks all of them against
``call_at``.  Everything else schedules through ``call_at``.

**Link-down contract.**  Links can be taken down (``set_up(False)``)
to model disconnection, like a radio going out of range.  Every down
transition starts a new *epoch*: anything queued, serializing or
propagating at that moment is lost and counted ``dropped_down``
exactly once — queued packets at once, the others when their
``arrival`` (or ``tx-done``) event finds the epoch has moved on, even
if the link is back up by then.  A doomed frame still occupies the
medium for its airtime.  Packets offered while the link is down are
``dropped_down`` at ``enqueue``.

Drops are counted, not announced: the :class:`LinkStats` counters are
the record, and an instrumented run publishes each direction's sum
once, as a ``PacketDropped`` run total, when it ends
(:func:`repro.experiments.runner.run_download`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.sim.core import NORMAL
from repro.net.loss import LossModel, NoLoss
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nodes import Device
    from repro.xia.packet import Packet


class LinkStats:
    """Per-direction counters (the drop counters summed are also the
    direction's ``PacketDropped`` run total)."""

    __slots__ = (
        "sent_packets",
        "delivered_packets",
        "dropped_loss",
        "dropped_queue",
        "dropped_down",
        "busy_time",
    )

    def __init__(self) -> None:
        self.sent_packets = 0
        self.delivered_packets = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        self.dropped_down = 0
        self.busy_time = 0.0


class Port:
    """A device's attachment point to one end of a link."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.device: Optional["Device"] = None
        self.link: Optional["Link"] = None
        self._out: Optional["LinkDirection"] = None
        self.peer: Optional["Port"] = None

    def send(self, packet: "Packet") -> None:
        """Queue ``packet`` for transmission toward the peer."""
        if self._out is None:
            raise ConfigurationError(f"port {self.name!r} is not connected")
        self._out.enqueue(packet)

    def deliver(self, packet: "Packet") -> None:
        """Called by the incoming pipe when a packet arrives here."""
        if self.device is not None:
            self.device.receive(packet, self)

    def __repr__(self) -> str:
        owner = self.device.name if self.device else "unattached"
        return f"<Port {self.name} of {owner}>"


class Medium:
    """What serializes packets: a wired direction's transmitter, or the
    radio channel both directions of a half-duplex link share.

    ``owner`` is the direction that last started serializing and
    ``busy_until`` when it finishes; ``waiting`` is the FIFO of other
    directions with packets queued.  ``handover`` is True while a
    ``tx-done`` event is scheduled at ``busy_until``; without one the
    medium simply counts as free once the clock passes ``busy_until``.
    """

    __slots__ = ("busy_until", "owner", "waiting", "handover")

    def __init__(self) -> None:
        self.busy_until = float("-inf")
        self.owner: Optional["LinkDirection"] = None
        self.waiting: deque["LinkDirection"] = deque()
        self.handover = False

    def _tx_done(self, lost_epoch: Optional[int]) -> None:
        """``busy_until`` reached: book a frame lost on air, then serve
        the FIFO.  The finishing direction re-queues *behind* peers
        already waiting, so saturated directions alternate."""
        self.handover = False
        owner = self.owner
        if lost_epoch is not None:
            owner._lost_on_air(lost_epoch)
        waiting = self.waiting
        if owner._queue:
            waiting.append(owner)
        while waiting:
            direction = waiting.popleft()
            queue = direction._queue
            if not queue:
                continue  # emptied by a link-down meanwhile
            packet = queue.popleft()
            direction._queued_bytes -= packet.size_bytes
            # The waited packet starts: the same steps as
            # ``LinkDirection.enqueue``'s free-medium branch for a packet
            # that did not wait — keep the two in sync.
            if direction._wired_airtime:
                airtime = packet.size_bytes * 8 / direction.bandwidth_bps
            else:
                airtime = direction.airtime(packet)
            stats = direction.stats
            stats.sent_packets += 1
            stats.busy_time += airtime
            sim = direction.sim
            self.owner = direction
            tx_end = self.busy_until = sim._now + airtime
            epoch = direction._link._epoch
            # Pushed as ``call_at`` would (the push rule, module docstring).
            lost = direction._air_lost
            if lost or queue or waiting:
                self.handover = True
                sim._seq += 1
                heappush(sim._queue, (tx_end, NORMAL, sim._seq, None,
                                      self._tx_done,
                                      (epoch if lost else None,), "tx-done"))
                if lost:  # the frame never propagates
                    direction._air_lost = False
                    return
            sim._seq += 1
            heappush(sim._queue, (tx_end + direction.delay, NORMAL, sim._seq,
                                  None, direction._arrival, (packet, epoch),
                                  "arrival"))
            return


class LinkDirection:
    """A one-way pipe: FIFO queue + serialization + delay + loss.

    This is the per-packet hot path: every simulated packet passes
    through ``enqueue`` (→ ``Medium._tx_done`` if it had to wait) →
    ``_arrive``.  The path is deliberately closure-free — ``_arrive``
    is bound once and pushed as the ``arrival`` step's callback (the
    push rule, module docstring), with the in-flight packet and the
    link epoch it started in as its arguments (arrivals pipeline, so
    they cannot live on the direction).

    **Deque-skip invariant.**  ``_queue`` holds only packets that
    actually wait: a packet offered to a free medium is serialized
    directly.  That is exact because a non-empty queue implies the
    medium has a ``tx-done`` scheduled (``medium.handover``), so a
    medium found free with none pending has nothing queued in front.
    """

    def __init__(
        self,
        sim: Simulator,
        source: Port,
        sink: Port,
        bandwidth_bps: float,
        delay: float,
        loss: Optional[LossModel] = None,
        queue_bytes: float = 512_000,
    ) -> None:
        self.sim = sim
        self.source = source
        self.sink = sink
        self.bandwidth_bps = check_positive("bandwidth_bps", bandwidth_bps)
        self.delay = check_non_negative("delay", delay)
        self.loss = loss if loss is not None else NoLoss()
        self.queue_limit_bytes = check_positive("queue_bytes", queue_bytes)
        self.stats = LinkStats()
        self._queue: deque["Packet"] = deque()
        self._queued_bytes = 0
        #: Our transmitter (half-duplex links point both directions at
        #: one shared Medium).
        self._medium = Medium()
        #: Set by :meth:`airtime` when link-layer recovery gave up on
        #: the frame being started: it never propagates.
        self._air_lost = False
        #: The owning Link, set by ``Link.__init__`` — lets the hot
        #: path read ``_link._up`` / ``_link._epoch`` directly.
        #: ``None`` for a direction constructed standalone, which
        #: therefore counts as down.
        self._link: Optional["Link"] = None
        #: Whether :meth:`airtime` is the plain serialization time
        #: (no subclass overrides it): a transmit start then does the
        #: division itself.  Decided here, from the class.
        self._wired_airtime = self.__class__.airtime is LinkDirection.airtime
        #: ``_arrive`` bound once: the ``arrival`` step's callback.
        self._arrival = self._arrive

    # -- queueing -----------------------------------------------------------

    def enqueue(self, packet: "Packet") -> None:
        link = self._link
        if link is None or not link._up:
            self.stats.dropped_down += 1
            return
        if self._queued_bytes + packet.size_bytes > self.queue_limit_bytes:
            self.stats.dropped_queue += 1
            return
        medium = self._medium
        sim = self.sim
        if not medium.handover:
            if sim._now >= medium.busy_until:
                # Free medium: the packet never waits.  The same steps
                # as ``Medium._tx_done`` takes for a packet that waited
                # — keep the two in sync.
                if self._wired_airtime:
                    airtime = packet.size_bytes * 8 / self.bandwidth_bps
                else:
                    airtime = self.airtime(packet)
                stats = self.stats
                stats.sent_packets += 1
                stats.busy_time += airtime
                medium.owner = self
                tx_end = medium.busy_until = sim._now + airtime
                epoch = link._epoch
                lost = self._air_lost
                if lost or self._queue or medium.waiting:
                    medium.handover = True
                    sim._seq += 1
                    heappush(sim._queue, (tx_end, NORMAL, sim._seq, None,
                                          medium._tx_done,
                                          (epoch if lost else None,), "tx-done"))
                    if lost:  # the frame never propagates
                        self._air_lost = False
                        return
                sim._seq += 1
                heappush(sim._queue, (tx_end + self.delay, NORMAL, sim._seq,
                                      None, self._arrival, (packet, epoch),
                                      "arrival"))
                return
            # Busy and nobody waited so far: now someone does, and the
            # hand-over is due when the medium frees (> now).
            medium.handover = True
            sim._seq += 1
            heappush(sim._queue, (medium.busy_until, NORMAL, sim._seq, None,
                                  medium._tx_done, (None,), "tx-done"))
        self._queue.append(packet)
        self._queued_bytes += packet.size_bytes
        if medium.owner is not self and self not in medium.waiting:
            medium.waiting.append(self)

    def clear(self) -> None:
        """Drop everything queued (link went down)."""
        self.stats.dropped_down += len(self._queue)
        self._queue.clear()
        self._queued_bytes = 0

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in this direction's queue (flight-recorder gauge)."""
        return self._queued_bytes

    # -- transmission ---------------------------------------------------------

    def _lost_on_air(self, epoch: int) -> None:
        """A frame the link layer gave up on reached its tx end."""
        if epoch != self._link._epoch:
            self.stats.dropped_down += 1
        else:
            self.stats.dropped_loss += 1

    def _arrive(self, packet: "Packet", epoch: int) -> None:
        stats = self.stats
        if epoch != self._link._epoch:
            stats.dropped_down += 1
            return
        # Sampled on arrival — both directions share one delay, so draws
        # from a loss RNG they share stay ordered by tx-end time.
        loss = self.loss
        if (self.loss_on_arrival and loss.__class__ is not NoLoss
                and loss.dropped(self.sim._now)):
            stats.dropped_loss += 1
            return
        stats.delivered_packets += 1
        sink = self.sink
        device = sink.device  # Port.deliver, inlined
        if device is not None:
            device.receive(packet, sink)

    # -- hooks for subclasses ----------------------------------------------------

    #: Whether the channel can still lose a packet that left the
    #: transmitter (False: the subclass settles every frame's fate in
    #: ``airtime``).
    loss_on_arrival = True

    def airtime(self, packet: "Packet") -> float:
        """Time the medium is occupied sending ``packet`` (called once,
        at transmit start; may set ``_air_lost``)."""
        return packet.size_bytes * 8 / self.bandwidth_bps


class Link:
    """A full-duplex point-to-point link between two devices."""

    direction_class = LinkDirection

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        delay: float,
        loss_a_to_b: Optional[LossModel] = None,
        loss_b_to_a: Optional[LossModel] = None,
        queue_bytes: float = 512_000,
        **direction_kwargs,
    ) -> None:
        self.sim = sim
        self.name = name
        self._up = True
        #: Count of up→down transitions (see the module docstring).
        self._epoch = 0
        self.port_a = Port(sim, f"{name}.a")
        self.port_b = Port(sim, f"{name}.b")
        self.forward = self.direction_class(
            sim,
            self.port_a,
            self.port_b,
            bandwidth_bps,
            delay,
            loss=loss_a_to_b,
            queue_bytes=queue_bytes,
            **direction_kwargs,
        )
        self.backward = self.direction_class(
            sim,
            self.port_b,
            self.port_a,
            bandwidth_bps,
            delay,
            loss=loss_b_to_a,
            queue_bytes=queue_bytes,
            **direction_kwargs,
        )
        self.forward._link = self
        self.backward._link = self
        self.port_a.link = self
        self.port_a._out = self.forward
        self.port_a.peer = self.port_b
        self.port_b.link = self
        self.port_b._out = self.backward
        self.port_b.peer = self.port_a
        # A connected port's send *is* its direction's enqueue: one
        # frame per packet less than going through ``Port.send``.
        self.port_a.send = self.forward.enqueue
        self.port_b.send = self.backward.enqueue

    def set_up(self, up: bool) -> None:
        """Bring the link up or down; going down drops queued and
        in-flight packets (a new epoch)."""
        if self._up and not up:
            self._epoch += 1
            self.forward.clear()
            self.backward.clear()
        self._up = up

    def attach(self, device_a: "Device", device_b: "Device") -> None:
        """Hand each endpoint port to its device."""
        device_a.add_port(self.port_a)
        device_b.add_port(self.port_b)

    @property
    def propagation_delay(self) -> float:
        return self.forward.delay

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        rate = self.forward.bandwidth_bps / 1e6
        return f"<Link {self.name} {rate:.1f}Mbps {state}>"
