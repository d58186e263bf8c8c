"""Packet-level reliable transport (the XIA "TCP-like" protocol).

One :class:`TransportEndpoint` lives on each host (or router — XCache
terminates chunk transfers on routers).  A bulk transfer is a pair of
sessions: a :class:`SenderSession` on the data source streaming DATA
segments under a congestion window (slow start, AIMD, fast retransmit,
exponential RTO backoff), and a :class:`ReceiverSession` on the sink
sending cumulative ACKs.  Sessions survive client mobility through
XIA's active session migration: the receiver announces its new address
with a MIGRATE packet and the sender resumes from the last
acknowledged byte after a fixed migration cost.
"""

from __future__ import annotations

import math
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import TransportError
from repro.obs.events import SegmentTimeout, SessionMigrated
from repro.sim import Event, Simulator
from repro.sim.core import NORMAL, PENDING, URGENT
from repro.transport.config import TransportConfig
from repro.xia.dag import DagAddress
from repro.xia.packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Port
    from repro.net.nodes import Host

class TransportEndpoint:
    """Per-host transport instance: creates and demuxes sessions."""

    def __init__(self, sim: Simulator, host: "Host", config: TransportConfig) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.senders: dict[int, SenderSession] = {}
        self.receivers: dict[int, ReceiverSession] = {}
        #: Session id -> segments retransmitted by this endpoint's
        #: closed sender sessions of that id that retransmitted any
        #: (an open session still holds its own count).
        self._closed_retransmissions: dict[int, int] = {}

    # -- session factories ---------------------------------------------------

    def start_send(
        self,
        session_id: int,
        dst: DagAddress,
        src: DagAddress,
        total_bytes: int,
        meta: Optional[dict[str, Any]] = None,
    ) -> "SenderSession":
        """Begin streaming ``total_bytes`` to ``dst``; idempotent per id."""
        existing = self.senders.get(session_id)
        if existing is not None:
            return existing
        session = SenderSession(
            self, session_id, dst, src, total_bytes, meta or {}, self.config
        )
        self.senders[session_id] = session
        self.host.register_session(session_id, session.on_packet)
        session.start()
        return session

    def open_receiver(
        self,
        session_id: int,
        config: Optional[TransportConfig] = None,
    ) -> "ReceiverSession":
        session = ReceiverSession(self, session_id, config or self.config)
        self.receivers[session_id] = session
        self.host.register_session(session_id, session.on_packet)
        return session

    def close_session(self, session_id: int) -> None:
        sender = self.senders.pop(session_id, None)
        if sender is not None and sender.retransmissions:
            closed = self._closed_retransmissions
            closed[session_id] = (
                closed.get(session_id, 0) + sender.retransmissions
            )
        self.receivers.pop(session_id, None)
        self.host.unregister_session(session_id)

    def retransmission_totals(self) -> dict[int, int]:
        """Session id -> segments retransmitted, for every sender session
        of this endpoint that retransmitted any, closed or still open:
        the run's ``SegmentRetransmitted`` totals."""
        totals = dict(self._closed_retransmissions)
        for session_id, sender in self.senders.items():
            if sender.retransmissions:
                totals[session_id] = (
                    totals.get(session_id, 0) + sender.retransmissions
                )
        return totals

    # -- mobility ------------------------------------------------------------

    def migrate_receivers(self, new_local_dag: DagAddress) -> list["Event"]:
        """Announce a new client address on every active receive session.

        Returns one event per session, firing when that session's
        migration is acknowledged.  Call after re-attaching to a
        network (XIA active session migration, Snoeren-style).
        """
        return [
            self.sim.process(receiver.migrate(new_local_dag))
            for receiver in list(self.receivers.values())
            if not receiver.done.triggered
        ]


class SenderSession:
    """The data-source half of a reliable bulk transfer."""

    def __init__(
        self,
        endpoint: TransportEndpoint,
        session_id: int,
        dst: DagAddress,
        src: DagAddress,
        total_bytes: int,
        meta: dict[str, Any],
        config: TransportConfig,
    ) -> None:
        if total_bytes <= 0:
            raise TransportError("total_bytes must be positive")
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.session_id = session_id
        self.dst = dst
        self.src = src
        self.total_bytes = int(total_bytes)
        self.meta = meta
        self.config = config
        self.total_segments = math.ceil(total_bytes / config.mss_bytes)

        # Congestion state.
        self.cwnd = float(config.initial_cwnd)
        self.ssthresh = float(config.initial_ssthresh)
        self.head = 0            # lowest unacknowledged segment index
        self.next_seq = 0        # next segment index to transmit
        self.dup_acks = 0
        self.in_recovery = False

        # RTT estimation (Jacobson/Karels).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = config.min_rto * 5  # conservative until first sample
        self._send_times: dict[int, float] = {}
        #: When the retransmission timer expires, and when this
        #: sender's pending ``rto`` kernel event fires (None: none
        #: pending).  Re-arming only moves the deadline; the event
        #: re-arms itself if it fires before it.
        self._rto_deadline = 0.0
        self._rto_event_at: Optional[float] = None

        # Stats.  ``retransmissions`` is also the session's run-end
        # ``SegmentRetransmitted`` total (see
        # ``TransportEndpoint.retransmission_totals``).
        self.retransmissions = 0
        self.timeouts = 0

        #: Fires with this session when the final segment is acked.
        self.done: Event = self.sim.event(name=f"send-done-{session_id}")
        #: Until when the sender CPU is busy with the last segment it
        #: emitted (``per_packet_cost`` each) — occupancy as a float,
        #: like ``Medium.busy_until``, not an event per segment.
        self._send_free_at = float("-inf")
        #: The kernel place (push order) taken when that segment left,
        #: for the pace event at ``_send_free_at`` — should one be needed.
        self._pace_place: Optional[int] = None
        #: True while a ``sender-wakeup`` event that will run
        #: :meth:`_pump` is on the kernel queue (at most one).
        self._pump_pending = False
        self._paused = False
        # One shared payload dict for all full-size segments (receivers
        # never mutate payloads); only the final, short segment differs.
        self._full_payload = {
            "total_segments": self.total_segments,
            "total_bytes": self.total_bytes,
            "payload_bytes": config.mss_bytes,
            **meta,
        }

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        # URGENT: the first segment leaves before anything else queued
        # at this instant, as a process bootstrap would.
        self._pump_at(self.sim._now, URGENT)
        self._arm_timer()

    @property
    def completed(self) -> bool:
        return self.head >= self.total_segments

    @property
    def inflight(self) -> int:
        return self.next_seq - self.head

    def _segment_payload_bytes(self, seq: int) -> int:
        if seq == self.total_segments - 1:
            remainder = self.total_bytes - seq * self.config.mss_bytes
            return remainder if remainder > 0 else self.config.mss_bytes
        return self.config.mss_bytes

    # -- the sender pump (DESIGN.md §15) ---------------------------------------

    def _can_send(self) -> bool:
        return (
            not self._paused
            and self.next_seq < self.total_segments
            and self.next_seq - self.head < int(self.cwnd)
        )

    def _pump(self) -> None:
        """Emit while the window and the sender CPU allow; close when done.

        Runs inline from :meth:`_wake` or as the callback of the one
        pending ``sender-wakeup`` event.  Each segment occupies the CPU
        until ``_send_free_at``; the next one is paced by an event
        there only if the window is still open.
        """
        self._pump_pending = False
        total = self.total_segments
        if self.head >= total:
            if self.done._value is PENDING:
                self.done.succeed(self)
            self.endpoint.close_session(self.session_id)
            return
        cost = self.config.per_packet_cost
        while (not self._paused and self.next_seq < total
               and self.next_seq - self.head < int(self.cwnd)):  # _can_send()
            self._emit(self.next_seq)
            self.next_seq += 1
            if cost > 0:
                sim = self.sim
                self._send_free_at = sim._now + cost
                self._pace_place = sim.reserve_place()
                self._pace()
                return

    def _pump_at(
        self, when: float, priority: int = NORMAL, place: Optional[int] = None
    ) -> None:
        self._pump_pending = True
        self.sim.call_at(
            when, self._pump, (), "sender-wakeup", priority, place
        )

    def _pace(self) -> None:
        """The CPU is busy: have the pump run when it frees up, if it
        would then have something to do (send or close).

        Whenever that turns out — now, or on an ACK halfway through the
        CPU time — the event takes the place reserved when the segment
        left: sessions whose CPUs free up at the same float timestamp
        (bulk senders started together stay in lock-step) send in the
        order they last sent.
        """
        if not self._pump_pending and (
            self.head >= self.total_segments or self._can_send()
        ):
            self._pump_at(self._send_free_at, NORMAL, self._pace_place)

    def _wake(self, inline: bool = False) -> None:
        """Sending may be possible again (or the transfer is complete).

        ``inline`` (the ACK path only) lets the pump run inside the
        caller when nothing else is queued at this instant — then a
        wake-up event would be the very next step anyway.  With a tie
        queued, or from any other caller, the pump takes its turn
        behind the tie as an event at ``now``: two sessions on one host
        woken at the same float timestamp must keep their order.
        """
        if self._pump_pending:
            return
        sim = self.sim
        now = sim._now
        if now < self._send_free_at:
            self._pace()
        elif inline and not (sim._queue and sim._queue[0][0] <= now):
            self._pump()
        else:
            self._pump_at(now)

    def _emit(self, seq: int, retransmit: bool = False) -> None:
        config = self.config
        payload_bytes = config.mss_bytes
        payload = self._full_payload
        if seq == self.total_segments - 1:  # only the final one may be short
            payload_bytes = self._segment_payload_bytes(seq)
            if payload_bytes != config.mss_bytes:
                payload = dict(payload, payload_bytes=payload_bytes)
        packet = Packet.acquire(
            PacketType.DATA,
            dst=self.dst,
            src=self.src,
            payload=payload,
            size_bytes=payload_bytes + config.header_bytes,
            session_id=self.session_id,
            seq=seq,
        )
        if retransmit:
            self.retransmissions += 1
            self._send_times.pop(seq, None)  # Karn: no RTT sample on rexmit
        else:
            self._send_times[seq] = self.sim._now
        self.endpoint.host.send(packet)

    # -- incoming packets -----------------------------------------------------

    def on_packet(self, packet: Packet, port: "Port") -> None:
        # This handler is each packet's terminal consumer: nothing
        # retains the object afterwards, so it goes back to the pool.
        if packet.ptype is PacketType.ACK:
            self._on_ack(packet)
            packet.release()
        elif packet.ptype is PacketType.MIGRATE:
            self._on_migrate(packet)
            packet.release()

    def _on_ack(self, packet: Packet) -> None:
        if self.done._value is not PENDING:
            return
        ack = int(packet.payload["ack"])
        if ack > self.head:
            newly_acked = ack - self.head
            self._sample_rtt(ack - 1)
            self.head = ack
            self.dup_acks = 0
            if self.in_recovery:
                self.in_recovery = False
                self.cwnd = self.ssthresh
            else:
                self._grow_cwnd(newly_acked)
            if self.next_seq < self.head:
                self.next_seq = self.head
            self._arm_timer()
            self._wake(inline=True)
            if self.head >= self.total_segments and self.done._value is PENDING:
                self.done.succeed(self)
        elif ack == self.head and self.next_seq - self.head > 0:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                self._fast_retransmit()

    def _sample_rtt(self, seq: int) -> None:
        sent_at = self._send_times.pop(seq, None)
        if sent_at is None:
            return
        sample = self.sim._now - sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            alpha, beta = 0.125, 0.25
            self.rttvar = (1 - beta) * self.rttvar + beta * abs(self.srtt - sample)
            self.srtt = (1 - alpha) * self.srtt + alpha * sample
        self.rto = min(
            max(self.srtt + 4 * self.rttvar, self.config.min_rto),
            self.config.max_rto,
        )

    def _grow_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + newly_acked, self.ssthresh + newly_acked)
        else:
            self.cwnd += newly_acked / self.cwnd

    def _fast_retransmit(self) -> None:
        self.ssthresh = max(self.inflight / 2.0, 2.0)
        self.cwnd = self.ssthresh + 3
        self.in_recovery = True
        self._emit(self.head, retransmit=True)
        self._arm_timer()
        if self.sim._now < self._send_free_at:
            self._pace()  # the inflated window may admit a new segment

    # -- timers ---------------------------------------------------------------

    def _arm_timer(self) -> None:
        """(Re)start the retransmission timer at ``now + rto``."""
        if self.head >= self.total_segments or self._paused:
            return
        deadline = self._rto_deadline = self.sim._now + self.rto
        pending = self._rto_event_at
        if pending is None or deadline < pending:
            self._push_rto_event(deadline)

    def _push_rto_event(self, when: float) -> None:
        self._rto_event_at = when
        self.sim.call_at(when, self._rto_fired, (when,), "rto")

    def _rto_fired(self, when: float) -> None:
        if when != self._rto_event_at:
            return  # superseded: a later push took an earlier deadline
        self._rto_event_at = None
        if self.completed or self._paused:
            return
        if self.sim._now < self._rto_deadline:
            # Fired early (ACKs moved the deadline): wait out the rest.
            self._push_rto_event(self._rto_deadline)
        else:
            self._on_timeout()

    def _on_timeout(self) -> None:
        self.timeouts += 1
        probe = self.sim.probe
        if probe.active:
            probe.emit(
                SegmentTimeout(session=self.session_id, seq=self.head, rto=self.rto)
            )
        self.ssthresh = max(self.inflight / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2, self.config.max_rto)
        self._emit(self.head, retransmit=True)
        self.next_seq = self.head + 1  # go-back-N after a timeout
        self._arm_timer()
        self._wake()

    def redirect(self, new_dst: DagAddress) -> None:
        """Point the stream at a new client address immediately.

        Used when a re-sent chunk request arrives from a different
        network than the one we have been sending to — the client moved
        before any data reached it, so there is no receiver state to
        migrate; just restart toward the new location.
        """
        if self.done.triggered or new_dst == self.dst:
            return
        self.dst = new_dst
        self.cwnd = float(self.config.initial_cwnd)
        self.dup_acks = 0
        self.in_recovery = False
        self.next_seq = self.head
        self.rto = max(self.srtt * 2 if self.srtt else self.config.min_rto,
                       self.config.min_rto)
        self._send_times.clear()
        self._arm_timer()
        self._wake()

    # -- migration --------------------------------------------------------------

    def _on_migrate(self, packet: Packet) -> None:
        new_dag = packet.payload["new_dag"]
        already_here = new_dag == self.dst
        self.dst = new_dag
        ack = Packet.acquire(
            PacketType.MIGRATE_ACK,
            dst=new_dag,
            src=self.src,
            payload={"session": self.session_id},
            size_bytes=self.config.ack_bytes,
            session_id=self.session_id,
        )
        self.endpoint.host.send(ack)
        if self.done.triggered or already_here:
            return
        probe = self.sim.probe
        if probe.active:
            probe.emit(SessionMigrated(session=self.session_id))
        self.sim.process(self._resume_after_migration())

    def _resume_after_migration(self):
        self._paused = True
        yield self.sim.timeout(self.config.migration_delay)
        self._paused = False
        self.cwnd = float(self.config.initial_cwnd)
        self.ssthresh = float(self.config.initial_ssthresh)
        self.dup_acks = 0
        self.in_recovery = False
        self.next_seq = self.head
        self.rto = max(self.srtt * 2 if self.srtt else self.config.min_rto,
                       self.config.min_rto)
        self._send_times.clear()
        self._arm_timer()
        self._wake()

    def __repr__(self) -> str:
        return (
            f"<SenderSession {self.session_id} {self.head}/{self.total_segments} "
            f"cwnd={self.cwnd:.1f}>"
        )


class ReceiverSession:
    """The sink half: reassembly state and cumulative ACKs."""

    def __init__(
        self,
        endpoint: TransportEndpoint,
        session_id: int,
        config: TransportConfig,
    ) -> None:
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.session_id = session_id
        self.config = config
        self.total_segments: Optional[int] = None
        self.highest_inorder = 0         # count of contiguous segments received
        self._out_of_order: set[int] = set()
        self.bytes_received = 0
        self.duplicate_segments = 0
        self._since_ack = 0
        self.peer_dag: Optional[DagAddress] = None
        #: Our own address as last put on an ACK, and the NID it was
        #: built for (it changes only when the host re-attaches).
        self._local: Optional[DagAddress] = None
        self._local_nid = None
        self.first_data_meta: Optional[dict[str, Any]] = None
        #: Fires on the first DATA packet (stops request retries).
        self.started: Event = self.sim.event(name=f"recv-start-{session_id}")
        #: Fires when the transfer completes, with this session.
        self.done: Event = self.sim.event(name=f"recv-done-{session_id}")

    @property
    def completed(self) -> bool:
        return (
            self.total_segments is not None
            and self.highest_inorder >= self.total_segments
        )

    # -- incoming ----------------------------------------------------------

    def on_packet(self, packet: Packet, port: "Port") -> None:
        # Terminal consumer: _on_data copies what it keeps (the meta
        # dict) or keeps shared immutable objects (the peer DAG), so
        # the packet itself recycles here.
        if packet.ptype is PacketType.DATA:
            self._on_data(packet)
            packet.release()
        elif packet.ptype is PacketType.MIGRATE_ACK:
            # handled by the pending migrate() process via this event
            if self._migrate_acked is not None and not self._migrate_acked.triggered:
                self._migrate_acked.succeed()
            packet.release()

    _migrate_acked: Optional[Event] = None

    def _on_data(self, packet: Packet) -> None:
        if self.done._value is not PENDING:
            self._send_ack(force=True)  # stale retransmission: re-ack
            return
        if self.total_segments is None:
            self.total_segments = int(packet.payload["total_segments"])
            self.first_data_meta = dict(packet.payload)
        self.peer_dag = packet.src
        if self.started._value is PENDING:
            self.started.succeed(self)

        seq = packet.seq
        duplicate = seq < self.highest_inorder or seq in self._out_of_order
        if duplicate:
            self.duplicate_segments += 1
            self._send_ack(force=True)
            return
        self.bytes_received += int(packet.payload.get("payload_bytes", 0))
        if seq == self.highest_inorder:
            self.highest_inorder += 1
            while self.highest_inorder in self._out_of_order:
                self._out_of_order.discard(self.highest_inorder)
                self.highest_inorder += 1
            self._since_ack += 1
            if self.highest_inorder >= self.total_segments:
                self._send_ack(force=True)
                self.done.succeed(self)
                self.endpoint.close_session(self.session_id)
            elif self._since_ack >= self.config.ack_every:
                self._send_ack()
        else:
            self._out_of_order.add(seq)
            self._send_ack(force=True)  # dup-ack signals the gap

    def _send_ack(self, force: bool = False) -> None:
        if self.peer_dag is None:
            return
        self._since_ack = 0
        ack = Packet.acquire(
            PacketType.ACK,
            dst=self.peer_dag,
            src=self._local_dag(),
            payload={"ack": self.highest_inorder},
            size_bytes=self.config.ack_bytes,
            session_id=self.session_id,
        )
        self.endpoint.host.send(ack)

    def _local_dag(self) -> DagAddress:
        host = self.endpoint.host
        nid = getattr(host, "current_nid", None) or getattr(host, "nid", None)
        if self._local is None or nid is not self._local_nid:
            self._local_nid = nid
            self._local = DagAddress.host(host.hid, nid)
        return self._local

    # -- migration -------------------------------------------------------------

    def migrate(self, new_local_dag: DagAddress):
        """Process: announce our new address until the sender ACKs it."""
        if self.peer_dag is None or self.done.triggered:
            return True
        self._migrate_acked = self.sim.event(name=f"migrate-ack-{self.session_id}")
        attempts = 0
        while not self._migrate_acked.triggered and attempts < self.config.request_retries:
            attempts += 1
            packet = Packet.acquire(
                PacketType.MIGRATE,
                dst=self.peer_dag,
                src=new_local_dag,
                payload={"new_dag": new_local_dag, "session": self.session_id},
                size_bytes=self.config.ack_bytes,
                session_id=self.session_id,
            )
            self.endpoint.host.send(packet)
            yield self.sim.any_of(
                [self._migrate_acked, self.sim.timeout(self.config.request_timeout)]
            )
        acked = self._migrate_acked.triggered
        self._migrate_acked = None
        return acked

    def __repr__(self) -> str:
        total = "?" if self.total_segments is None else self.total_segments
        return f"<ReceiverSession {self.session_id} {self.highest_inorder}/{total}>"
