"""Tests for links, queues, wireless ARQ and the processing model."""

import pytest

from repro.experiments.runner import publish_run_totals
from repro.net import Host, Link, Network, ProcessingModel, WirelessLink
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.obs.events import PacketDropped
from repro.sim import RandomStreams, Simulator
from repro.util import mbps, ms
from repro.xia import DagAddress, HID
from repro.xia.packet import Packet, PacketType


class Sink(Host):
    """A host that records everything it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name, HID(name))
        self.received = []
        self.register_handler(PacketType.DATA, self._on_data)

    def _on_data(self, packet, port):
        self.received.append((self.sim.now, packet))


def make_pair(link):
    sim = link.sim
    net = Network(sim)
    a = net.add_device(Sink(sim, "a"))
    b = net.add_device(Sink(sim, "b"))
    net.connect(a, b, link)
    return sim, a, b


def packet_to(b, size=1000, seq=0):
    return Packet(
        PacketType.DATA,
        dst=DagAddress.host(b.hid),
        src=DagAddress.host(HID("a")),
        size_bytes=size,
        seq=seq,
        payload={},
    )


def test_serialization_plus_propagation_delay():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(8), delay=ms(5))
    sim2, a, b = make_pair(link)
    a.send(packet_to(b, size=1000))  # 1000B at 8 Mbps = 1 ms airtime
    sim.run()
    arrival = b.received[0][0]
    assert arrival == pytest.approx(0.001 + 0.005)


def test_fifo_and_back_to_back_serialization():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(8), delay=0.0)
    _, a, b = make_pair(link)
    for seq in range(3):
        a.send(packet_to(b, size=1000, seq=seq))
    sim.run()
    times = [t for t, _ in b.received]
    seqs = [p.seq for _, p in b.received]
    assert seqs == [0, 1, 2]
    assert times == pytest.approx([0.001, 0.002, 0.003])


def test_queue_overflow_drops():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(1), delay=0.0, queue_bytes=2500)
    _, a, b = make_pair(link)
    for seq in range(10):
        a.send(packet_to(b, size=1000, seq=seq))
    sim.run()
    assert link.forward.stats.dropped_queue > 0
    assert len(b.received) < 10


def test_link_down_drops_everything():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(10), delay=ms(1))
    _, a, b = make_pair(link)
    link.set_up(False)
    a.send(packet_to(b))
    sim.run()
    assert b.received == []
    assert link.forward.stats.dropped_down >= 1


def test_link_down_mid_flight_drops():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(10), delay=ms(50))
    _, a, b = make_pair(link)
    a.send(packet_to(b))

    def cut(sim):
        yield sim.timeout(0.01)  # after serialization, before arrival
        link.set_up(False)

    sim.process(cut(sim))
    sim.run()
    assert b.received == []


def test_bernoulli_loss_drops_fraction():
    sim = Simulator()
    rng = RandomStreams(3).stream("loss")
    link = Link(sim, "l", bandwidth_bps=mbps(100), delay=0.0,
                loss_a_to_b=BernoulliLoss(0.5, rng))
    _, a, b = make_pair(link)
    for seq in range(400):
        a.send(packet_to(b, seq=seq))
    sim.run()
    assert 100 < len(b.received) < 300


def test_wireless_arq_hides_moderate_loss():
    sim = Simulator()
    rng = RandomStreams(3).stream("loss")
    link = WirelessLink(
        sim, "w", mac_rate_bps=mbps(65),
        loss_up=BernoulliLoss(0.3, rng), max_retries=6,
    )
    _, a, b = make_pair(link)

    def paced_sender(sim):
        for seq in range(300):
            a.send(packet_to(b, seq=seq))
            yield sim.timeout(1e-3)  # keep the queue from overflowing

    sim.process(paced_sender(sim))
    sim.run()
    # i.i.d. 30% loss with 6 retries: residual ~ 0.3^7 ~ 0.02%.
    assert len(b.received) >= 299
    assert link.forward.retransmissions > 50


def test_wireless_retries_cost_airtime():
    def run_with_loss(loss_rate):
        sim = Simulator()
        rng = RandomStreams(7).stream("loss")
        loss = BernoulliLoss(loss_rate, rng) if loss_rate else None
        link = WirelessLink(sim, "w", mac_rate_bps=mbps(65), loss_up=loss)
        _, a, b = make_pair(link)
        for seq in range(200):
            a.send(packet_to(b, size=1500, seq=seq))
        sim.run()
        return b.received[-1][0]

    assert run_with_loss(0.3) > 1.3 * run_with_loss(0.0)


def test_wireless_half_duplex_shares_airtime():
    sim = Simulator()
    link = WirelessLink(sim, "w", mac_rate_bps=mbps(65), delay=0.0)
    _, a, b = make_pair(link)
    for seq in range(100):
        a.send(packet_to(b, size=1500, seq=seq))
        b.send(packet_to(a, size=1500, seq=seq))
    sim.run()
    # Both directions moved 100 packets over ONE medium: the finish
    # time is ~double a single direction's.
    one_way_airtime = 100 * (1500 * 8 / mbps(65) + 150e-6)
    finish = max(b.received[-1][0], a.received[-1][0])
    assert finish > 1.8 * one_way_airtime


class ScriptedLoss(LossModel):
    """Fails the first ``failures`` draws, then succeeds; counts draws."""

    def __init__(self, failures):
        self.failures, self.draws = failures, 0

    def dropped(self, now):
        self.draws += 1
        return self.draws <= self.failures


@pytest.mark.parametrize("failures, lost, draws, retransmissions", [
    (0, False, 1, 0), (1, False, 2, 1), (2, False, 3, 2), (3, False, 4, 3),
    # Four failures then a success: the fifth transmission is made (and
    # charged) but its outcome is discarded — the frame counts as lost.
    (4, True, 5, 4),
    (5, True, 5, 4), (6, True, 5, 4),
])
def test_arq_gives_up_after_max_retries_failed_draws_pinned(
        failures, lost, draws, retransmissions):
    """Pins, does not bless, an off-by-one: with ``max_retries = k`` the
    link transmits up to k + 1 times but declares the frame lost as soon
    as the first k draws failed, so i.i.d. residual loss is p^k, not the
    p^(k+1) that k retries would suggest (EXPERIMENTS.md, "Deviations,
    honestly").  p^k is the link's behaviour; fixing it moves every
    golden figure."""
    sim = Simulator()
    loss = ScriptedLoss(failures)
    link = WirelessLink(sim, "w", mac_rate_bps=mbps(65), delay=ms(1),
                        loss_up=loss, max_retries=4, retry_backoff=0.5e-3,
                        frame_overhead=150e-6)
    _, a, b = make_pair(link)
    a.send(packet_to(b, size=1500))
    sim.run()
    forward = link.forward
    single = 1500 * 8 / mbps(65) + 150e-6
    attempts = retransmissions + 1
    assert loss.draws == draws
    assert forward.retransmissions == retransmissions
    assert forward.stats.busy_time == attempts * single + retransmissions * 0.5e-3
    assert (forward.stats.dropped_loss, len(b.received)) == (
        (1, 0) if lost else (0, 1))


def test_gilbert_elliott_on_wireless_leaks_bursty_residual():
    sim = Simulator()
    rng = RandomStreams(11).stream("loss")
    loss = GilbertElliottLoss(0.27, rng, good_loss=0.02, bad_loss=0.95,
                              mean_bad_duration=0.25)
    link = WirelessLink(sim, "w", mac_rate_bps=mbps(65),
                        loss_up=loss, max_retries=4)
    _, a, b = make_pair(link)
    for seq in range(2000):
        a.send(packet_to(b, size=1500, seq=seq))
    sim.run()
    # Deep fades defeat ARQ: visible residual loss, unlike i.i.d.
    assert link.forward.stats.dropped_loss > 10


def test_processing_model_queues_work():
    """``Device.receive`` is the one definition of the CPU arithmetic."""
    sim = Simulator()
    host = Host(sim, "h", HID("h"),
                processing=ProcessingModel(sim, per_packet_seconds=1e-3))
    handled = []
    host.register_handler(PacketType.DATA, lambda p, port: handled.append(sim.now))
    host.receive(packet_to(host), None)
    host.receive(packet_to(host), None)  # queued behind the first
    assert sim.pending("cpu") == pytest.approx([1e-3, 2e-3]) and handled == []
    sim.run()
    assert handled == pytest.approx([1e-3, 2e-3])
    free = Sink(sim, "free")  # zero cost: handled inside receive, no step
    free.receive(packet_to(free), None)
    assert len(free.received) == 1 and sim.pending("cpu") == []


def _published(sim):
    """Every event published on ``sim``'s bus from now on."""
    events = []
    sim.probe.bus.subscribe_all(lambda s: events.append(s.event))
    return events


def _drop_totals(sim, link):
    """``(link, count)`` of each run-end ``PacketDropped`` total
    ``link`` publishes, the way ``run_download`` publishes them."""
    events = []
    sim.probe.bus.subscribe(PacketDropped, lambda s: events.append(s.event))
    publish_run_totals(sim.probe, [link], [])
    return [(e.link, e.count) for e in events]


def test_link_down_emits_one_batched_drop_event():
    """The flushed queue is counted at once and published as one total
    per direction when the run ends — not per packet, and not from a
    step of its own while the run is going.  Going down announces
    nothing either: the link's state is its own."""
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(1), delay=ms(50))
    sim, a, b = make_pair(link)
    during = _published(sim)
    for seq in range(6):
        a.send(packet_to(b, seq=seq))

    def take_down(sim):
        yield sim.timeout(0.001)
        link.set_up(False)
        assert sim.pending("link-down-flush") == []

    sim.process(take_down(sim))
    sim.run()
    queued = link.forward.stats.dropped_down
    assert queued >= 4  # most of the burst was still queued
    assert during == []
    assert _drop_totals(sim, link) == [("l.a", queued)]


def test_queue_drops_are_one_run_total():
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(100), delay=ms(1),
                queue_bytes=1500)
    sim, a, b = make_pair(link)
    during = _published(sim)
    for seq in range(5):
        a.send(packet_to(b, size=1000, seq=seq))
    sim.run()
    stats = link.forward.stats
    assert stats.dropped_queue >= 1 and during == []
    assert stats.delivered_packets + stats.dropped_queue == 5
    assert _drop_totals(sim, link) == [("l.a", stats.dropped_queue)]


def test_a_direction_publishes_its_drops_summed_over_reasons():
    """One total per direction: loss, queue and down drops together."""
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(1), delay=ms(1))
    stats = link.forward.stats
    stats.dropped_loss, stats.dropped_queue, stats.dropped_down = 3, 4, 5
    link.backward.stats.dropped_down = 2
    assert _drop_totals(sim, link) == [(link.forward.source.name, 12),
                                       (link.backward.source.name, 2)]


def test_down_link_delivery_counts_match_the_wide_fold():
    """The run-end total and the per-reason counters agree end to end:
    the wide fold's ``dropped_packets`` is their sum."""
    from repro.obs.wide import WideEventBuilder

    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(1), delay=ms(50))
    sim, a, b = make_pair(link)
    records = []
    fold = WideEventBuilder(sinks=[records.append]).attach(sim.probe.bus)
    for seq in range(6):
        a.send(packet_to(b, seq=seq))

    def take_down(sim):
        yield sim.timeout(0.001)
        link.set_up(False)

    sim.process(take_down(sim))
    sim.run()
    assert fold.events_seen == 0
    publish_run_totals(sim.probe, [link], [])
    fold.finish()
    total_down = (link.forward.stats.dropped_down
                  + link.backward.stats.dropped_down)
    assert records[-1]["dropped_packets"] == total_down > 0


# -- the link-down contract (epochs) and on-demand tx-done --------------------


def lossy_wireless(sim):
    """A wireless link whose every attempt fails: each frame exhausts
    ARQ (2 attempts x (1 ms + 150 us) + 0.5 ms backoff = 2.8 ms on air)."""
    rng = RandomStreams(1).stream("loss")
    return WirelessLink(sim, "w", mac_rate_bps=mbps(8), delay=ms(1),
                        loss_up=BernoulliLoss(1.0, rng), max_retries=1)


@pytest.mark.parametrize("down_at, reason", [
    (None, "loss"),     # ARQ gives up: a residual loss, booked at tx end
    (1e-3, "down"),     # ...unless the link drops while it is on air
    (3e-3, "loss"),     # a link-down after its tx end changes nothing
])
def test_residual_lost_frame_caught_by_link_down_counts_down_once(
        down_at, reason):
    sim = Simulator()
    link = lossy_wireless(sim)
    _, a, b = make_pair(link)
    a.send(packet_to(b, size=1000))
    if down_at is not None:
        done = sim.event()
        done.callbacks.append(lambda _event: link.set_up(False))
        done.succeed(delay=down_at)
    stats = link.forward.stats
    sim.run(until=2.79e-3)
    assert (stats.dropped_down, stats.dropped_loss) == (0, 0)
    sim.run()  # ...booked at its tx end, 2.8 ms
    assert b.received == []
    assert (stats.dropped_down, stats.dropped_loss) == (
        (1, 0) if reason == "down" else (0, 1))
    assert _drop_totals(sim, link) == [("w.a", 1)]


@pytest.mark.parametrize("wireless", [False, True])
def test_flap_does_not_resurrect_in_flight_packets(wireless):
    """Down then up again while a packet serializes / propagates: it
    belonged to the old epoch and stays lost; later packets get through."""
    sim = Simulator()
    if wireless:
        link = WirelessLink(sim, "w", mac_rate_bps=mbps(8), delay=ms(5))
    else:
        link = Link(sim, "l", bandwidth_bps=mbps(8), delay=ms(5))
    _, a, b = make_pair(link)

    def script(sim):
        a.send(packet_to(b, size=1000, seq=0))   # on air until >= 1 ms
        yield sim.timeout(2e-3)                  # seq 0 now propagating
        a.send(packet_to(b, size=1000, seq=1))   # seq 1 serializing
        link.set_up(False)
        link.set_up(True)
        a.send(packet_to(b, size=1000, seq=2))   # new epoch: waits its turn

    sim.process(script(sim))
    sim.run()
    assert [p.seq for _, p in b.received] == [2]
    assert link.forward.stats.dropped_down == 2
    assert link.forward.stats.sent_packets == 3


def test_tx_done_event_exists_only_when_someone_waits():
    """A lone packet costs one kernel event (its arrival); a burst adds
    one hand-over per packet that found the transmitter busy."""
    sim = Simulator()
    link = Link(sim, "l", bandwidth_bps=mbps(8), delay=ms(1))
    _, a, b = make_pair(link)
    a.send(packet_to(b))
    assert sim.heap_pushes == 1
    sim.run()
    assert sim.steps_processed == 1
    for seq in range(5):
        a.send(packet_to(b, seq=seq))
    sim.run()
    assert len(b.received) == 6
    assert sim.steps_processed == 1 + 5 + 4  # 5 arrivals, 4 hand-overs
