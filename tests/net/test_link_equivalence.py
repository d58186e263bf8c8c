"""Differential test: the arithmetic-medium link against a two-event model.

``RefLink`` below is the link this repo had before serialization became
arithmetic — a ``tx-done`` event *and* an arrival event per packet, a
FIFO grant queue for the half-duplex medium whose grants take a kernel
turn — restated under the epoch link-down contract of
``repro.net.link``.  It lives here only, as the reference the real
``LinkDirection`` / ``WirelessLink`` must match packet for packet:
delivery times, drops per reason, ``busy_time`` and the order of loss
draws.

The real link is single-stepped, and after every kernel step the
deque-skip invariant its free-medium fast path stands on is checked
(see ``check_deque_skip``).
"""

import inspect
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Host, Link, Network, WirelessLink
from repro.net.link import LinkDirection, Port
from repro.net.nodes import Device
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim import Simulator
from repro.xia import DagAddress, HID
from repro.xia.packet import Packet, PacketType
from repro.xia.router import AccessPoint, XIARouter

BANDWIDTH_BPS = 8e6
QUEUE_BYTES = 6000
MAX_RETRIES = 2
RETRY_BACKOFF = 0.3e-3
FRAME_OVERHEAD = 0.1e-3


class RecordingLoss(BernoulliLoss):
    """Bernoulli loss that logs which direction drew, in draw order."""

    def __init__(self, rate, rng, log, tag):
        super().__init__(rate, rng)
        self._log, self._tag = log, tag

    def dropped(self, now):
        self._log.append(self._tag)
        return super().dropped(now)


class RefDirection:
    def __init__(self, link, loss):
        self.link, self.loss = link, loss
        self.queue, self.queued, self.transmitting = deque(), 0, False
        self.delivered, self.busy_time = [], 0.0
        self.drops = {"down": 0, "loss": 0, "queue": 0}

    def enqueue(self, ident, size):
        if not self.link.up:
            self.drops["down"] += 1
        elif self.queued + size > QUEUE_BYTES:
            self.drops["queue"] += 1
        else:
            self.queue.append((ident, size))
            self.queued += size
            if not self.transmitting:
                self.transmitting = True
                self.begin_next()

    def begin_next(self):
        link = self.link
        if not self.queue:
            self.transmitting = False
        elif not link.wireless:
            self.transmit()
        elif link.holder is None and not link.waiting:
            link.holder = self
            self.transmit()
        else:
            link.waiting.append(self)

    def release(self):
        link = self.link
        link.holder = None
        if link.waiting:
            link.holder = granted = link.waiting.popleft()
            link.after(0.0, granted.on_grant)  # grants take a kernel turn

    def on_grant(self):
        if self.queue:
            self.transmit()
        else:  # emptied by a link-down while waiting
            self.release()
            self.transmitting = False

    def transmit(self):
        link = self.link
        ident, size = self.queue.popleft()
        self.queued -= size
        airtime, lost = size * 8 / BANDWIDTH_BPS, False
        if link.wireless:
            attempts = 1
            while self.loss.dropped(link.sim.now) and attempts <= MAX_RETRIES:
                attempts += 1
            lost = attempts > MAX_RETRIES
            airtime = (attempts * (airtime + FRAME_OVERHEAD)
                       + (attempts - 1) * RETRY_BACKOFF)
        self.busy_time += airtime
        link.after(airtime, self.tx_done, ident, link.epoch, lost)

    def tx_done(self, ident, epoch, lost):
        link = self.link
        if link.wireless:
            self.release()
        if epoch != link.epoch:
            self.drops["down"] += 1
        elif lost or (not link.wireless and self.loss.dropped(link.sim.now)):
            self.drops["loss"] += 1
        else:
            link.after(link.delay, self.arrive, ident, epoch)
        self.begin_next()

    def arrive(self, ident, epoch):
        if epoch != self.link.epoch:
            self.drops["down"] += 1
        else:
            self.delivered.append((ident, self.link.sim.now))


class RefLink:
    def __init__(self, sim, wireless, delay, losses):
        self.sim, self.wireless, self.delay = sim, wireless, delay
        self.up, self.epoch = True, 0
        self.holder, self.waiting = None, deque()
        self.directions = [RefDirection(self, loss) for loss in losses]

    def after(self, delay, action, *args):
        after(self.sim, delay, action, *args)

    def set_up(self, up):
        if self.up and not up:
            self.epoch += 1
            for direction in self.directions:
                direction.drops["down"] += len(direction.queue)
                direction.queue.clear()
                direction.queued = 0
        self.up = up


class Sink(Host):
    def __init__(self, sim, name):
        super().__init__(sim, name, HID(name))
        self.received = []
        self.register_handler(
            PacketType.DATA,
            lambda packet, port: self.received.append((packet.seq, sim.now)),
        )


def after(sim, delay, action, *args):
    event = sim.event()
    event.callbacks.append(lambda _event: action(*args))
    event.succeed(delay=delay)


def check_deque_skip(link):
    """``enqueue`` serializes a packet offered to a free medium without
    queueing it, which is FIFO-exact only if nothing can be queued on a
    medium that is free with no ``tx-done`` pending: a direction's deque
    holds packets only while a hand-over is scheduled to serve them
    (and its byte count is theirs)."""
    for direction in (link.forward, link.backward):
        medium = direction._medium
        assert not direction._queue or medium.handover
        assert direction._queued_bytes == sum(
            packet.size_bytes for packet in direction._queue)
        assert direction._queued_bytes <= QUEUE_BYTES
    for medium in {link.forward._medium, link.backward._medium}:
        assert medium.handover or not medium.waiting


def losses(rate, seed, log):
    """Both directions draw from ONE rng, like the Internet shaper."""
    if not rate:
        return [NoLoss(), NoLoss()]
    rng = random.Random(seed)
    return [RecordingLoss(rate, rng, log, tag) for tag in (0, 1)]


def real_link(wireless, delay, loss_models):
    """The link under test between two sinks: ``(sim, link, ends)``."""
    sim = Simulator()
    up, down = loss_models
    if wireless:
        link = WirelessLink(
            sim, "l", BANDWIDTH_BPS, delay=delay, loss_up=up, loss_down=down,
            max_retries=MAX_RETRIES, retry_backoff=RETRY_BACKOFF,
            frame_overhead=FRAME_OVERHEAD, queue_bytes=QUEUE_BYTES,
        )
    else:
        link = Link(sim, "l", BANDWIDTH_BPS, delay, loss_a_to_b=up,
                    loss_b_to_a=down, queue_bytes=QUEUE_BYTES)
    net = Network(sim)
    ends = [net.add_device(Sink(sim, name)) for name in "ab"]
    net.connect(ends[0], ends[1], link)
    return sim, link, ends


def run_both(wireless, delay, loss_rate, seed, script, late=()):
    """Drive the real link and the reference with one script; return
    ``(real, reference)`` observations in a comparable shape.

    ``late`` steps are pushed from an event at time 0 that runs after
    the script's own time-0 steps, so they order behind whatever those
    pushed (the reference's ``tx-done``) at an equal timestamp."""
    # -- the real link
    real_draws = []
    sim, link, ends = real_link(
        wireless, delay, losses(loss_rate, seed, real_draws))
    # -- the reference
    ref_sim, ref_draws = Simulator(), []
    ref = RefLink(ref_sim, wireless, delay, losses(loss_rate, seed, ref_draws))

    def send(direction, ident, size):
        source, sink = ends[direction], ends[1 - direction]
        source.send(Packet(
            PacketType.DATA, dst=DagAddress.host(sink.hid),
            src=DagAddress.host(source.hid), size_bytes=size, seq=ident,
            payload={},
        ))

    def schedule(clock, enqueue, set_up, steps, first_ident):
        for ident, (when, kind, direction, size) in enumerate(
                steps, first_ident):
            if kind == "send":
                after(clock, when, enqueue, direction, ident, size)
            else:
                after(clock, when, set_up, kind == "up")

    def ref_enqueue(direction, ident, size):
        ref.directions[direction].enqueue(ident, size)

    for side in ((sim, send, link.set_up), (ref_sim, ref_enqueue, ref.set_up)):
        schedule(*side, script, 0)
        if late:
            after(side[0], 0.0, schedule, *side, late, len(script))
    while sim._queue:
        sim.step()
        check_deque_skip(link)
    ref_sim.run()

    real = []
    for direction, sink in ((link.forward, ends[1]), (link.backward, ends[0])):
        stats = direction.stats
        real.append((
            sink.received,
            {"down": stats.dropped_down, "loss": stats.dropped_loss,
             "queue": stats.dropped_queue},
            stats.busy_time,
        ))
    reference = [(d.delivered, d.drops, d.busy_time) for d in ref.directions]
    return (real, real_draws), (reference, ref_draws)


def scripts(flaps):
    kinds = ["send"] * 6 + (["down", "up"] if flaps else [])
    step = st.tuples(
        st.floats(min_value=0.0, max_value=2.5e-3),      # gap to the previous
        st.sampled_from(kinds),
        st.integers(min_value=0, max_value=1),           # direction
        st.integers(min_value=64, max_value=1500),       # bytes on the wire
    )

    def absolute(steps):
        now, out = 0.0, []
        for gap, kind, direction, size in steps:
            now += gap
            out.append((now, kind, direction, size))
        return out

    return st.lists(step, min_size=1, max_size=60).map(absolute)


DELAYS = st.sampled_from([0.0, 0.4e-3, 3e-3])


@settings(max_examples=150, deadline=None)
@given(script=scripts(flaps=False), delay=DELAYS,
       seed=st.integers(min_value=0, max_value=999))
def test_wired_matches_reference_and_draws_in_tx_done_order(
        script, delay, seed):
    """Lossy wired link, one loss RNG shared by both directions: the
    reference draws at tx-done, the real link on arrival — outcomes and
    draw order must agree all the same."""
    real, reference = run_both(False, delay, 0.3, seed, script)
    assert real == reference


@settings(max_examples=150, deadline=None)
@given(script=scripts(flaps=True), delay=DELAYS, wireless=st.booleans(),
       seed=st.integers(min_value=0, max_value=999))
def test_link_flaps_match_reference(script, delay, wireless, seed):
    """Both directions, random flaps: wired (lossless) and half-duplex
    wireless with ARQ, whose draws happen at transmit start."""
    loss_rate = 0.45 if wireless else 0.0
    real, reference = run_both(wireless, delay, loss_rate, seed, script)
    assert real == reference


def lossless_airtime(size, wireless):
    """The link's own float expression, one ARQ attempt on wireless."""
    if wireless:
        return 1 * (size * 8 / BANDWIDTH_BPS + FRAME_OVERHEAD) + 0 * RETRY_BACKOFF
    return size * 8 / BANDWIDTH_BPS


@pytest.mark.parametrize("wireless", [False, True], ids=["wired", "wireless"])
def test_packets_offered_exactly_at_busy_until_match_reference(wireless):
    """The boundary of the fast path: at ``now == busy_until`` with no
    hand-over pending the medium counts as free, so the first packet
    offered then starts at once — and the ones offered behind it at the
    same instant (same direction, and the peer) queue and overflow."""
    def airtime(size):
        return lossless_airtime(size, wireless)

    free_at = 0.0 + airtime(1000)
    script = [(0.0, "send", 0, 1000)]
    late = [(free_at, "send", direction, size) for direction, size in (
        (0, 1200), (1, 500), (0, 1500), (0, 1500), (0, 1500), (0, 1500),
        (0, 1500), (1, 64),
    )]
    delay = 0.4e-3
    (real, _), (reference, _) = run_both(
        wireless, delay, 0.0, 0, script, late)
    assert real == reference
    forward, backward = real
    # Packet 1 was serialized from free_at on, not behind a tx-done turn.
    assert forward[0][1] == (1, free_at + airtime(1200) + delay)
    assert forward[1]["queue"] == 1 and len(forward[0]) == 6
    assert [ident for ident, _ in backward[0]] == [2, 8]


@pytest.mark.parametrize("wireless, loss_rate", [
    (False, 0.0), (True, 0.0), (True, 0.6), (True, 1.0),
], ids=["wired", "wireless", "wireless-arq", "wireless-lost-on-air"])
def test_fused_free_medium_entry_books_exactly_what_start_does(
        wireless, loss_rate):
    """``enqueue`` serializes a packet that finds the medium free with
    the same steps ``Medium._tx_done`` takes for a packet that waited
    (the two copies carry keep-in-sync comments).  Twin links, the
    same packets: one offered through ``enqueue``, one queued and
    handed over by ``_tx_done`` — single-stepped, the two must book
    the same airtime, draws, events and outcome."""
    def twin():
        draws = []
        return *real_link(wireless, 0.4e-3, losses(loss_rate, 7, draws)), draws

    def observe(sim, link, ends, draws):
        direction, medium = link.forward, link.forward._medium
        stats = direction.stats
        return (
            {name: getattr(stats, name) for name in stats.__slots__},
            (medium.busy_until, medium.owner is direction, medium.handover),
            sim.pending("arrival"), sim.pending("tx-done"), sim.heap_pushes,
            direction._air_lost, list(draws), ends[1].received,
        )

    def after_waiting(direction, packet):
        """The packet waited and the medium is handed over to it."""
        direction._queue.append(packet)
        direction._queued_bytes += packet.size_bytes
        medium = direction._medium
        medium.owner = direction
        medium._tx_done(None)

    fused, waited = twin(), twin()
    for seq in range(6):
        for side, entry in ((fused, LinkDirection.enqueue),
                            (waited, after_waiting)):
            sim, link, ends, _draws = side
            assert sim.now >= link.forward._medium.busy_until  # free
            entry(link.forward, Packet(
                PacketType.DATA, dst=DagAddress.host(ends[1].hid),
                src=DagAddress.host(ends[0].hid), size_bytes=700 + 100 * seq,
                seq=seq, payload={}))
        assert observe(*fused) == observe(*waited)
        while fused[0]._queue:
            fused[0].step()
            waited[0].step()
            assert observe(*fused) == observe(*waited)


def test_tracer_boundaries_are_defined_on_their_own_class_and_bound_late(
        monkeypatch):
    """The frozen ``benchmarks/e2e/tracer.py`` swaps these methods for
    timing shims through their class ``__dict__``, before the scenario
    is built; the bindings made at construction (a connected port's
    ``send`` is its direction's ``enqueue``) must pick the shims up."""
    for owner, attr in (
        (Port, "send"), (Port, "deliver"), (LinkDirection, "enqueue"),
        (Device, "receive"), (XIARouter, "handle_packet"),
        (XIARouter, "send"), (AccessPoint, "handle_packet"),
    ):
        assert inspect.isfunction(owner.__dict__[attr]), (owner, attr)
    seen = []
    enqueue = LinkDirection.enqueue

    def shim(direction, packet):
        seen.append(packet.seq)
        enqueue(direction, packet)

    monkeypatch.setattr(LinkDirection, "enqueue", shim)
    sim = Simulator()
    link = Link(sim, "l", BANDWIDTH_BPS, 0.0)
    monkeypatch.undo()  # like Tracer.uninstall: built links keep the shim
    net = Network(sim)
    ends = [net.add_device(Sink(sim, name)) for name in "ab"]
    net.connect(ends[0], ends[1], link)
    ends[0].send(Packet(
        PacketType.DATA, dst=DagAddress.host(ends[1].hid),
        src=DagAddress.host(ends[0].hid), size_bytes=100, seq=7, payload={},
    ))
    sim.run()
    assert seen == [7] and [seq for seq, _ in ends[1].received] == [7]
