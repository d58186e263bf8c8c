"""Differential test: the reliable transport against a plain restatement.

``RefSender`` / ``RefReceiver`` below restate
``repro.transport.reliable``'s sender and receiver the unoptimised way.
The sender is one generator process: it emits a segment, sleeps out
its per-packet CPU time in a ``Timeout`` and otherwise waits for an
ACK to wake it.  Every (re)arm of the retransmission timer is a
``Timeout`` of its own, and only the latest one counts.  The real
sender reaches the same behaviour with an inline pump, reserved pace
places and one re-pushed ``rto`` step; nothing of that is restated
here.

Both run over the same network (host - router - host, the router
charging CPU time) with the same seeded loss on the bottleneck, the
loss models recording every draw, and optionally an outage long enough
to force retransmission timeouts.  They must agree on the time and
content of every DATA and ACK emission, every change of the
congestion window, slow-start threshold, RTO and retransmission
counts, the loss draws, and the completion and close times.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Host, Link, Network, ProcessingModel
from repro.net.loss import BernoulliLoss
from repro.sim import Simulator
from repro.transport import TransportEndpoint, XIA_STREAM
from repro.transport import reliable
from repro.transport.config import KERNEL_TCP
from repro.util import mbps, ms
from repro.xia import DagAddress, HID, NID
from repro.xia.packet import Packet, PacketType
from repro.xia.router import XIARouter

#: The sender state whose every change is compared.
WATCHED = ("cwnd", "ssthresh", "rto", "retransmissions", "timeouts")

#: Simulated seconds a transfer may take.  A sender whose final ACK is
#: lost never completes: the receiver has closed its session, so the
#: retransmissions of the last segment go unanswered every ``max_rto``.
HORIZON = 40.0

CONFIGS = {
    "xstream": XIA_STREAM,
    "xstream-free-cpu": XIA_STREAM.with_(per_packet_cost=0.0),
    "kernel-tcp": KERNEL_TCP,
}


class Watched:
    """Logs ``(now, value)`` each time a ``WATCHED`` attribute changes."""

    def __setattr__(self, name, value):
        if name in WATCHED:
            log = self.__dict__.setdefault("changes", {}).setdefault(name, [])
            if not log or log[-1][1] != value:
                log.append((self.sim.now, value))
        object.__setattr__(self, name, value)


#: The sender ``start_send`` builds, and the one the real runs use.
REAL_SENDER = reliable.SenderSession


class WatchedSender(Watched, REAL_SENDER):
    pass


class RecordingLoss(BernoulliLoss):
    """Bernoulli loss that logs ``(now, tag, dropped)`` per draw."""

    def __init__(self, rate, rng, log, tag):
        super().__init__(rate, rng)
        self._log, self._tag = log, tag

    def dropped(self, now):
        lost = super().dropped(now)
        self._log.append((now, self._tag, lost))
        return lost


class RefSender(Watched):
    """The sender, restated: one process, one Timeout per RTO arm."""

    def __init__(self, sim, host, session_id, dst, src, total_bytes, config):
        self.sim, self.host, self.config = sim, host, config
        self.session_id, self.dst, self.src = session_id, dst, src
        self.total_bytes = total_bytes
        self.total = math.ceil(total_bytes / config.mss_bytes)
        self.cwnd = float(config.initial_cwnd)
        self.ssthresh = float(config.initial_ssthresh)
        self.head = self.next_seq = self.dup_acks = 0
        self.in_recovery = False
        self.srtt, self.rttvar = None, 0.0
        self.rto = config.min_rto * 5
        self.sent_at = {}
        self.retransmissions = self.timeouts = 0
        self.free_at = float("-inf")  # the CPU is busy until then
        self.timer = 0  # which RTO Timeout is the live one
        self.wakeup = None  # what the process waits on when it cannot send
        self.done = sim.event()
        self.closed_at = None
        host.register_session(session_id, self.on_packet)
        sim.process(self.run())
        self.arm()

    def can_send(self):
        return (self.next_seq < self.total
                and self.next_seq - self.head < int(self.cwnd))

    def run(self):
        cost = self.config.per_packet_cost
        while self.head < self.total:
            if self.can_send():
                self.emit(self.next_seq)
                self.next_seq += 1
                if cost > 0:
                    self.free_at = self.sim.now + cost
                    yield self.sim.timeout(cost)
            else:
                self.wakeup = self.sim.event()
                yield self.wakeup
        self.closed_at = self.sim.now
        self.host.unregister_session(self.session_id)

    def wake(self):
        if self.wakeup is not None and not self.wakeup.triggered:
            self.wakeup.succeed()

    def emit(self, seq, retransmit=False):
        mss = self.config.mss_bytes
        payload_bytes = min(mss, self.total_bytes - seq * mss)
        if retransmit:
            self.retransmissions += 1
            self.sent_at.pop(seq, None)  # Karn: a retransmission is no sample
        else:
            self.sent_at[seq] = self.sim.now
        self.host.send(Packet(
            PacketType.DATA, dst=self.dst, src=self.src,
            payload={"total_segments": self.total,
                     "total_bytes": self.total_bytes,
                     "payload_bytes": payload_bytes},
            size_bytes=payload_bytes + self.config.header_bytes,
            session_id=self.session_id, seq=seq,
        ))

    def arm(self):
        if self.head >= self.total:
            return
        self.timer += 1
        timer = self.timer
        self.sim.timeout(self.rto).callbacks.append(
            lambda _event: self.expire(timer))

    def expire(self, timer):
        if timer != self.timer or self.head >= self.total:
            return  # re-armed since, or finished
        self.timeouts += 1
        self.ssthresh = max((self.next_seq - self.head) / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2, self.config.max_rto)
        self.emit(self.head, retransmit=True)
        self.next_seq = self.head + 1  # go-back-N
        self.arm()
        self.wake()

    def on_packet(self, packet, port):
        if packet.ptype is not PacketType.ACK or self.done.triggered:
            return
        ack = packet.payload["ack"]
        if ack > self.head:
            sent = self.sent_at.pop(ack - 1, None)
            if sent is not None:
                sample = self.sim.now - sent
                if self.srtt is None:
                    self.srtt, self.rttvar = sample, sample / 2
                else:
                    self.rttvar = (0.75 * self.rttvar
                                   + 0.25 * abs(self.srtt - sample))
                    self.srtt = 0.875 * self.srtt + 0.125 * sample
                self.rto = min(max(self.srtt + 4 * self.rttvar,
                                   self.config.min_rto), self.config.max_rto)
            newly = ack - self.head
            self.head = ack
            self.dup_acks = 0
            if self.in_recovery:
                self.in_recovery = False
                self.cwnd = self.ssthresh
            elif self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + newly, self.ssthresh + newly)
            else:
                self.cwnd += newly / self.cwnd
            self.next_seq = max(self.next_seq, self.head)
            self.arm()
            if self.head >= self.total:
                self.done.succeed()
            self.wake()
        elif ack == self.head and self.next_seq > self.head:
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                self.ssthresh = max((self.next_seq - self.head) / 2.0, 2.0)
                self.cwnd = self.ssthresh + 3
                self.in_recovery = True
                self.emit(self.head, retransmit=True)
                self.arm()
                # No wake: a busy CPU looks at the window when it frees
                # up; a free one waits for the next new ACK.


class RefReceiver:
    """The receiver, restated: cumulative ACKs, one per ``ack_every``
    in-order segments and one for every other segment."""

    def __init__(self, sim, host, session_id, config):
        self.sim, self.host, self.config = sim, host, config
        self.session_id = session_id
        self.total = None
        self.highest = 0
        self.out_of_order = set()
        self.bytes_received = 0
        self.since_ack = 0
        self.peer = None
        self.done = sim.event()
        host.register_session(session_id, self.on_packet)

    def on_packet(self, packet, port):
        if packet.ptype is not PacketType.DATA:
            return
        if self.total is None:
            self.total = packet.payload["total_segments"]
        self.peer = packet.src
        seq = packet.seq
        if seq < self.highest or seq in self.out_of_order:
            self.ack()
            return
        self.bytes_received += packet.payload["payload_bytes"]
        if seq != self.highest:
            self.out_of_order.add(seq)
            self.ack()  # the duplicate ACK signals the gap
            return
        self.highest += 1
        while self.highest in self.out_of_order:
            self.out_of_order.remove(self.highest)
            self.highest += 1
        self.since_ack += 1
        if self.highest >= self.total:
            self.ack()
            self.done.succeed()
            self.host.unregister_session(self.session_id)
        elif self.since_ack >= self.config.ack_every:
            self.ack()

    def ack(self):
        self.since_ack = 0
        self.host.send(Packet(
            PacketType.ACK, dst=self.peer,
            src=DagAddress.host(self.host.hid),
            payload={"ack": self.highest}, size_bytes=self.config.ack_bytes,
            session_id=self.session_id,
        ))


def network(bandwidth, delay, loss_rates, seed):
    """``a - r - b``: a fast first hop, then the lossy bottleneck; the
    router charges 20 us a packet.  Returns ``(sim, a, b, router,
    bottleneck, draws)``."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_device(Host(sim, "a", HID("a")))
    b = net.add_device(Host(sim, "b", HID("b")))
    router = net.add_device(XIARouter(
        sim, "r", HID("r"), NID("net-r"),
        processing=ProcessingModel(sim, per_packet_seconds=20e-6)))
    net.register_network(router.nid, router)
    draws = []
    rng = random.Random(seed)  # both directions draw from one stream
    data_loss, ack_loss = (
        RecordingLoss(rate, rng, draws, tag) if rate else None
        for rate, tag in zip(loss_rates, ("data", "ack"))
    )
    net.connect(a, router, Link(sim, "a-r", mbps(100), ms(1)))
    bottleneck = net.connect(router, b, Link(
        sim, "r-b", bandwidth, delay,
        loss_a_to_b=data_loss, loss_b_to_a=ack_loss))
    net.build_static_routes()
    return sim, a, b, router, bottleneck, draws


def transfer(reference, config, segments, bandwidth, delay, loss_rates,
             seed, outage=None):
    """One transfer of ``segments`` (the last one short) from ``a`` to
    ``b``, by the real transport or by the reference: what it did."""
    sim, a, b, router, bottleneck, draws = network(
        bandwidth, delay, loss_rates, seed)
    emitted = {"a": [], "b": []}
    for host in (a, b):
        def recording(packet, log=emitted[host.name], send=host.send):
            log.append((sim.now, packet.ptype.name, packet.seq,
                        packet.size_bytes, dict(packet.payload)))
            send(packet)
        host.send = recording
    if outage is not None:
        down_at, length = outage
        sim.call_at(down_at, bottleneck.set_up, (False,))
        sim.call_at(down_at + length, bottleneck.set_up, (True,))

    total_bytes = segments * config.mss_bytes - 17
    dst = DagAddress.host(b.hid, router.nid)
    src = DagAddress.host(a.hid, router.nid)
    session = sim.new_session_id()
    closed = []
    if reference:
        receiver = RefReceiver(sim, b, session, config)
        sender = RefSender(sim, a, session, dst, src, total_bytes, config)
    else:
        endpoint = TransportEndpoint(sim, a, config)
        close_session = endpoint.close_session

        def closing(session_id):
            closed.append(sim.now)
            close_session(session_id)

        endpoint.close_session = closing
        receiver = TransportEndpoint(sim, b, config).open_receiver(session)
        # ``start_send`` builds a session that logs its own changes.
        reliable.SenderSession = WatchedSender
        try:
            sender = endpoint.start_send(session, dst, src, total_bytes)
        finally:
            reliable.SenderSession = REAL_SENDER
    done = {}
    for side, event in (("sender", sender.done), ("receiver", receiver.done)):
        event.callbacks.append(
            lambda _event, side=side: done.setdefault(side, sim.now))
    sim.run(until=HORIZON)
    if reference and sender.closed_at is not None:
        closed.append(sender.closed_at)
    return {
        "data": emitted["a"],
        "acks": emitted["b"],
        "changes": sender.changes,
        "draws": draws,
        "bytes_received": receiver.bytes_received,
        "done": done,
        "closed": closed,
    }


def compare(**scenario):
    """Run the scenario both ways, assert that they agree, and return
    what the real transport did."""
    real = transfer(False, **scenario)
    reference = transfer(True, **scenario)
    for key in real:
        assert real[key] == reference[key], key
    return real


def scenario(config="xstream", segments=120, bandwidth=mbps(8),
             delay=ms(2), loss_rates=(0.0, 0.0), seed=0, outage=None):
    return dict(config=CONFIGS[config], segments=segments,
                bandwidth=bandwidth, delay=delay, loss_rates=loss_rates,
                seed=seed, outage=outage)


OUTAGES = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.004, 0.03, 0.2]), st.sampled_from([0.5, 1.3, 2.9])))


@settings(max_examples=120, deadline=None)
@given(config=st.sampled_from(sorted(CONFIGS)),
       segments=st.integers(min_value=1, max_value=260),
       bandwidth=st.sampled_from([mbps(3), mbps(8), mbps(30)]),
       delay=st.sampled_from([ms(1), ms(4)]),
       loss_rates=st.tuples(st.sampled_from([0.0, 0.02, 0.1, 0.3]),
                            st.sampled_from([0.0, 0.05, 0.2])),
       seed=st.integers(min_value=0, max_value=999),
       outage=OUTAGES)
def test_transport_matches_reference(
        config, segments, bandwidth, delay, loss_rates, seed,
        outage):
    compare(**scenario(config, segments, bandwidth, delay,
                                    loss_rates, seed, outage))


def test_fast_retransmit_on_the_third_duplicate_ack():
    """Lossy data, clean ACKs: losses are repaired by fast retransmit
    (a retransmission without a timeout) as well as by timeouts."""
    real = compare(**scenario(
        segments=250, loss_rates=(0.05, 0.0), seed=4))
    retransmissions = real["changes"]["retransmissions"][-1][1]
    timeouts = dict(real["changes"]).get("timeouts", [(0, 0)])[-1][1]
    assert retransmissions > timeouts


def test_an_outage_forces_backed_off_timeouts_and_karn_samples():
    """The bottleneck goes down for 2.9 s mid-transfer: the RTO fires,
    backs off and fires again, go-back-N resends the window, and the
    retransmitted head is acknowledged on its own — the sample Karn's
    rule must not take."""
    real = compare(**scenario(
        segments=200, outage=(0.2, 2.9)))
    assert real["changes"]["timeouts"][-1][1] >= 2
    rtos = [value for _t, value in real["changes"]["rto"]]
    assert any(later == 2 * earlier for earlier, later in zip(rtos, rtos[1:]))


def test_acks_move_the_rto_deadline_of_a_long_transfer():
    """A lossless transfer longer than the first RTO: every ACK re-arms
    the timer, so it never expires."""
    real = compare(**scenario(
        config="kernel-tcp", segments=400, bandwidth=mbps(3)))
    assert real["done"]["sender"] > 1.0 + 0.2  # past the first deadline
    assert "timeouts" not in real["changes"] or \
        real["changes"]["timeouts"][-1][1] == 0


def test_a_lost_final_ack_leaves_the_sender_retransmitting_pinned():
    """Pinned, not endorsed: the receiver closes its session on the
    last segment, so when that segment's ACK is lost the sender's
    retransmissions of it go unanswered and it never completes — it
    backs off to ``max_rto`` and resends every 8 s for as long as the
    simulation runs.  Both implementations agree on it."""
    real = compare(**scenario(segments=112, bandwidth=mbps(30),
                              delay=ms(4), loss_rates=(0.02, 0.2), seed=637))
    assert set(real["done"]) == {"receiver"} and real["closed"] == []
    last = [t for t, _kind, seq, _size, _payload in real["data"] if seq == 111]
    assert len(last) > 4 and last[-1] - last[-2] == pytest.approx(8.0)
