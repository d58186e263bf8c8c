"""Unit tests for the reliable transport's congestion machinery.

These drive a sender/receiver pair over a tiny two-host network so the
protocol state can be inspected directly.
"""

import pytest

from repro.net import Host, Link, Network
from repro.net.loss import BernoulliLoss
from repro.sim import RandomStreams, Simulator
from repro.transport import TransportEndpoint, XIA_STREAM
from repro.transport.config import TransportConfig
from repro.util import mbps, ms
from repro.xia import DagAddress, HID


CONFIG = XIA_STREAM.with_(per_packet_cost=0.0)


class Pair:
    """Two hosts on one link, with endpoints."""

    def __init__(self, loss=0.0, bandwidth=mbps(50), delay=ms(2), seed=3,
                 config: TransportConfig = CONFIG):
        self.sim = Simulator()
        net = Network(self.sim, RandomStreams(seed))
        self.a = net.add_device(Host(self.sim, "a", HID("a")))
        self.b = net.add_device(Host(self.sim, "b", HID("b")))
        loss_model = (
            BernoulliLoss(loss, RandomStreams(seed).stream("l"))
            if loss else None
        )
        link = Link(self.sim, "ab", bandwidth, delay,
                    loss_a_to_b=loss_model, loss_b_to_a=None)
        net.connect(self.a, self.b, link)
        self.ep_a = TransportEndpoint(self.sim, self.a, config)
        self.ep_b = TransportEndpoint(self.sim, self.b, config)

    def transfer(self, total_bytes):
        session = self.sim.new_session_id()
        receiver = self.ep_b.open_receiver(session)
        sender = self.ep_a.start_send(
            session,
            dst=DagAddress.host(self.b.hid),
            src=DagAddress.host(self.a.hid),
            total_bytes=total_bytes,
        )
        self.sim.run(until=receiver.done)
        # Let the final ACKs drain back so the sender completes too.
        if not sender.done.triggered:
            self.sim.run(until=sender.done)
        return sender, receiver


def test_transfer_delivers_every_byte():
    pair = Pair()
    sender, receiver = pair.transfer(100_000)
    assert receiver.bytes_received == 100_000
    assert receiver.completed
    assert sender.completed


def test_transfer_with_loss_still_completes():
    pair = Pair(loss=0.05)
    sender, receiver = pair.transfer(300_000)
    assert receiver.bytes_received == 300_000
    assert sender.retransmissions > 0


def test_lossless_transfer_has_no_retransmissions():
    pair = Pair()
    sender, receiver = pair.transfer(500_000)
    assert sender.retransmissions == 0
    assert sender.timeouts == 0
    assert receiver.duplicate_segments == 0


def test_rtt_estimator_converges_to_path_rtt():
    pair = Pair(delay=ms(10))
    sender, _ = pair.transfer(500_000)
    assert sender.srtt == pytest.approx(0.02, rel=0.5)  # ~2 * 10 ms


def test_slow_start_grows_cwnd():
    pair = Pair()
    sender, _ = pair.transfer(500_000)
    assert sender.cwnd > CONFIG.initial_cwnd


def test_throughput_bounded_by_link():
    pair = Pair(bandwidth=mbps(10), delay=ms(1))
    started = pair.sim.now
    _, receiver = pair.transfer(1_000_000)
    duration = pair.sim.now - started
    throughput = 1_000_000 * 8 / duration
    assert throughput < mbps(10)
    assert throughput > mbps(5)


def test_mathis_scaling_under_loss():
    """Halving RTT roughly doubles loss-limited throughput."""
    def rate(delay):
        pair = Pair(loss=0.02, delay=delay, bandwidth=mbps(500))
        started = pair.sim.now
        pair.transfer(1_000_000)
        return 1_000_000 * 8 / (pair.sim.now - started)

    slow = rate(ms(20))
    fast = rate(ms(5))
    assert fast > 2.0 * slow


def test_duplicate_data_is_acked_not_recounted():
    pair = Pair()
    sender, receiver = pair.transfer(50_000)
    before = receiver.bytes_received
    # Simulate a stale retransmission arriving after completion.
    from repro.xia.packet import Packet, PacketType

    stale = Packet(
        PacketType.DATA,
        dst=DagAddress.host(pair.b.hid),
        src=DagAddress.host(pair.a.hid),
        payload={"total_segments": sender.total_segments,
                 "payload_bytes": 1290},
        size_bytes=1514,
        session_id=sender.session_id,
        seq=0,
    )
    receiver._on_data(stale)
    assert receiver.bytes_received == before


def test_partial_final_segment_sizes():
    pair = Pair()
    odd_size = CONFIG.mss_bytes * 3 + 17
    sender, receiver = pair.transfer(odd_size)
    assert sender.total_segments == 4
    assert receiver.bytes_received == odd_size


def test_sender_idempotent_start():
    pair = Pair()
    session = pair.sim.new_session_id()
    receiver = pair.ep_b.open_receiver(session)
    kwargs = dict(
        dst=DagAddress.host(pair.b.hid),
        src=DagAddress.host(pair.a.hid),
        total_bytes=10_000,
    )
    first = pair.ep_a.start_send(session, **kwargs)
    second = pair.ep_a.start_send(session, **kwargs)
    assert first is second
    pair.sim.run(until=receiver.done)


def test_session_ids_unique():
    """Unique within a simulator; each simulator counts its own, so a
    scenario's ids do not depend on the ones built before it."""
    sim = Simulator()
    assert [sim.new_session_id() for _ in range(3)] == [1, 2, 3]
    assert Simulator().new_session_id() == 1


def test_redirect_restarts_toward_new_destination():
    pair = Pair()
    session = pair.sim.new_session_id()
    receiver = pair.ep_b.open_receiver(session)
    sender = pair.ep_a.start_send(
        session,
        dst=DagAddress.host(HID("elsewhere")),  # unroutable at first
        src=DagAddress.host(pair.a.hid),
        total_bytes=50_000,
    )
    pair.sim.run(until=5.0)
    assert not receiver.started.triggered
    sender.redirect(DagAddress.host(pair.b.hid))
    pair.sim.run(until=receiver.done)
    assert receiver.bytes_received == 50_000


# -- the retransmission timer: one deadline, one re-armable kernel event ------


def rto_events(sim):
    """Fire times of the ``rto`` steps currently on the heap."""
    return sim.pending("rto")


def open_transfer(pair, total_bytes=2_000_000):
    session = pair.sim.new_session_id()
    receiver = pair.ep_b.open_receiver(session)
    sender = pair.ep_a.start_send(
        session, dst=DagAddress.host(pair.b.hid),
        src=DagAddress.host(pair.a.hid), total_bytes=total_bytes,
    )
    return sender, receiver


def test_rto_rearm_keeps_one_event_and_only_moves_the_deadline():
    pair = Pair()
    sender, _ = open_transfer(pair)
    assert len(rto_events(pair.sim)) == 1
    pair.sim.run(until=0.05)  # hundreds of ACKs re-armed the timer
    assert sender.head > 100 and sender.timeouts == 0
    assert sender._rto_deadline == pytest.approx(pair.sim.now + sender.rto,
                                                 abs=5e-3)
    # Nothing on the heap per ACK: the live event plus, at most, the one
    # it superseded when the first RTT sample shrank the initial RTO.
    live = [t for t in rto_events(pair.sim) if t == sender._rto_event_at]
    assert len(live) == 1 and len(rto_events(pair.sim)) <= 2
    pair.sim.run(until=sender.done)
    pair.sim.run()  # leftovers fire as no-ops
    assert rto_events(pair.sim) == [] and sender.timeouts == 0


def test_rto_deadline_pulled_earlier_when_rto_shrinks():
    pair = Pair()
    sender, _ = open_transfer(pair)
    first = sender._rto_event_at
    assert first == sender._rto_deadline == pytest.approx(sender.rto)
    sender.rto /= 10
    sender._arm_timer()
    assert sender._rto_deadline == sender._rto_event_at < first
    assert len(rto_events(pair.sim)) == 2  # the late one is now stale...
    sender.rto *= 10
    pair.sim.run(until=first + 1e-9)
    assert sender.timeouts == 0            # ...and fired as a no-op


def test_rto_early_fire_rearms_at_the_exact_stored_deadline():
    """Cut the wire after the first flight: ACKs moved the deadline past
    the pending event, which must re-arm at that float and time out there."""
    pair = Pair()
    sender, _ = open_transfer(pair)
    pair.sim.run(until=0.02)
    pair.a.port().link.set_up(False)
    deadline, pending = sender._rto_deadline, sender._rto_event_at
    assert pending < deadline
    fired_at = []
    on_timeout = sender._on_timeout
    sender._on_timeout = lambda: (fired_at.append(pair.sim.now), on_timeout())
    pair.sim.run(until=pending)
    assert fired_at == [] and sender._rto_event_at == deadline
    pair.sim.run(until=deadline)
    assert fired_at == [deadline] and sender.timeouts == 1


def test_rto_silent_while_paused_and_after_completion():
    pair = Pair()
    sender, _ = open_transfer(pair, total_bytes=200_000)
    pair.sim.run(until=0.01)
    pair.a.port().link.set_up(False)  # nothing will be acked any more
    sender._paused = True
    pair.sim.run(until=pair.sim.now + 10 * sender.rto)
    assert sender.timeouts == 0 and rto_events(pair.sim) == []
    sender._paused = False
    sender._arm_timer()               # resume: one fresh event
    assert len(rto_events(pair.sim)) == 1
    sender.head = sender.total_segments  # completed
    pair.sim.run(until=pair.sim.now + 10 * sender.rto)
    assert sender.timeouts == 0 and rto_events(pair.sim) == []


def test_profiler_shows_the_rto_timer_as_its_own_row():
    from repro.sim.profiler import SimProfiler

    pair = Pair(loss=0.05)
    with SimProfiler(pair.sim) as profiler:
        sender, _ = pair.transfer(300_000)
    keys = {row.key: row for row in profiler.stats()}
    assert keys["event:rto"].calls >= 1
    # One kernel step per expiry or early wake-up, not three per ACK.
    assert keys["event:rto"].calls < sender.head / 4
    assert "process:_rto_watch" not in keys and "event:request" not in keys
