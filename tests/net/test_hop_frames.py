"""The packet path's frame budget and its frozen call boundaries.

A forwarded router hop is two kernel steps (``arrival``, ``cpu`` —
DESIGN.md §15 proves that floor) and, since packet-path diet IV, six
Python frames: ``_arrive → receive → call_at``, then ``handle_packet →
enqueue → call_at``.  It was ten (``admit``, ``DagAddress.__hash__``,
``_start`` and ``airtime`` had frames of their own); the budget is
seven.  The count is exact on any machine, so it is pinned here rather
than timed.

The methods ``benchmarks/e2e/tracer.py`` (frozen) swaps for timing
shims stay real class-level boundaries: a shim installed on the class
*before* the topology is built is entered exactly once per hop / per
delivered packet — what keeps the referee's per-layer attribution
valid whatever the path inlines around them.
"""

import sys
from collections import Counter

import pytest

from repro.net import Host, Link, Network, ProcessingModel, WirelessLink
from repro.net.link import LinkDirection, Port
from repro.net.nodes import Device
from repro.sim import Simulator
from repro.transport import TransportEndpoint, XIA_STREAM
from repro.transport.reliable import ReceiverSession, SenderSession
from repro.util import mbps, ms
from repro.xia import DagAddress, HID, NID
from repro.xia.packet import Packet, PacketType
from repro.xia.router import AccessPoint, XIARouter

PACKETS = 200


def line(routers):
    """hostA - r1 - ... - rN - hostB, wired; every router charges CPU
    time, so each hop pays its ``cpu`` step like the testbed's."""
    sim = Simulator()
    net = Network(sim)
    host_a = net.add_device(Host(sim, "hostA", HID("hostA")))
    host_b = net.add_device(Host(sim, "hostB", HID("hostB")))
    chain = [host_a]
    for index in range(1, routers + 1):
        router = net.add_device(XIARouter(
            sim, f"r{index}", HID(f"r{index}"), NID(f"net{index}"),
            processing=ProcessingModel(sim, per_packet_seconds=20e-6),
        ))
        net.register_network(router.nid, router)
        chain.append(router)
    chain.append(host_b)
    for left, right in zip(chain, chain[1:]):
        net.connect(left, right, Link(
            sim, f"{left.name}-{right.name}", mbps(100), ms(1)))
    net.build_static_routes()
    return sim, host_a, chain[1:-1], host_b


def flood_frames(routers):
    """Frames entered, by function name, while ``PACKETS`` paced DATA
    packets cross the line (paced: no packet ever waits for a medium,
    so no hop pays a ``tx-done`` hand-over)."""
    sim, host_a, chain, host_b = line(routers)
    got = []
    host_b.register_handler(PacketType.DATA, lambda p, port: got.append(p.seq))
    dst = DagAddress.host(host_b.hid, chain[-1].nid)
    src = DagAddress.host(host_a.hid, chain[0].nid)

    def offer(first, count):
        for seq in range(first, first + count):
            packet = Packet(PacketType.DATA, dst=dst, src=src,
                            size_bytes=1500, seq=seq, payload={})
            sim.call_at(sim.now + (seq - first) * 1e-3, host_a.send, (packet,))

    offer(0, 1)
    sim.run()  # every router has compiled its decision
    offer(1, PACKETS)
    frames = Counter()

    def hook(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1

    sys.setprofile(hook)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    assert got == list(range(PACKETS + 1))
    assert sum(r.forwarded_packets for r in chain) == routers * (PACKETS + 1)
    return frames


def test_a_forwarded_router_hop_is_six_python_frames():
    """The third router's share of the flood, per packet: everything
    else (the send, the first two hops, the delivery) cancels."""
    hop = flood_frames(3) - flood_frames(2)
    assert {name: count / PACKETS for name, count in hop.items()} == {
        "_arrive": 1, "receive": 1, "handle_packet": 1, "enqueue": 1,
        "call_at": 2,
    }  # six: inside the budget of seven (parent: ten)


BOUNDARIES = (
    (Simulator, "run"), (Port, "send"), (Port, "deliver"),
    (LinkDirection, "enqueue"), (Device, "receive"),
    (XIARouter, "handle_packet"), (XIARouter, "send"),
    (AccessPoint, "handle_packet"), (SenderSession, "on_packet"),
    (ReceiverSession, "on_packet"),
)


@pytest.fixture
def entries(monkeypatch):
    """Counting shims on every frozen boundary, put on the class the
    way ``Tracer.install`` does."""
    counts = Counter()

    def shim(label, original):
        def counting(*args, **kwargs):
            counts[label] += 1
            return original(*args, **kwargs)
        return counting

    for owner, attr in BOUNDARIES:
        label = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, shim(label, owner.__dict__[attr]))
    return counts


def test_class_level_shims_see_one_entry_per_hop_and_per_delivery(entries):
    """client ~ AP - r1 - r2, a transfer from r2's endpoint (XCache's
    seat) to the client: DATA down through ``XIARouter.send``, a router
    and the bridge; ACKs back up through the bridge and two routers."""
    sim = Simulator()
    net = Network(sim)
    client = net.add_device(Host(sim, "client", HID("client")))
    ap = net.add_device(AccessPoint(sim, "ap", HID("ap")))
    routers = []
    for name in ("r1", "r2"):
        router = net.add_device(XIARouter(
            sim, name, HID(name), NID(f"net-{name}"),
            processing=ProcessingModel(sim, per_packet_seconds=20e-6)))
        net.register_network(router.nid, router)
        routers.append(router)
    r1, r2 = routers
    links = [
        net.connect(client, ap, WirelessLink(sim, "air", mbps(30))),
        net.connect(ap, r1, Link(sim, "ap-r1", mbps(100), ms(1))),
        net.connect(r1, r2, Link(sim, "r1-r2", mbps(100), ms(1))),
    ]
    net.build_static_routes()
    net.attach_client(client, client.port(), ap, r1.nid)
    session = sim.new_session_id()
    receiver = TransportEndpoint(sim, client, XIA_STREAM).open_receiver(session)
    sender = TransportEndpoint(sim, r2, XIA_STREAM).start_send(
        session, dst=DagAddress.host(client.hid, r1.nid),
        src=DagAddress.host(r2.hid, r2.nid),
        total_bytes=150 * XIA_STREAM.mss_bytes,
    )
    sim.run()
    assert sender.completed and receiver.completed
    assert sender.retransmissions == 0

    directions = [d for link in links for d in (link.forward, link.backward)]
    sent = sum(d.stats.sent_packets for d in directions)
    delivered = sum(d.stats.delivered_packets for d in directions)

    def received(device):
        """Packets the directions that sink into ``device`` delivered."""
        return sum(d.stats.delivered_packets for d in directions
                   if d.sink.device is device)

    data = sender.total_segments
    acks = received(r2)
    assert sent == delivered == 3 * (data + acks)
    assert dict(entries) == {
        "Simulator.run": 1,
        "LinkDirection.enqueue": sent,
        "Device.receive": delivered,
        "XIARouter.send": data,
        "XIARouter.handle_packet": received(r1) + received(r2),
        "AccessPoint.handle_packet": received(ap),
        "ReceiverSession.on_packet": received(client),
        "SenderSession.on_packet": acks,
        # A connected port's ``send`` is its direction's ``enqueue`` and
        # ``_arrive`` reads ``sink.device`` itself: neither is entered.
    }
    assert received(client) == data
    assert received(ap) == data + acks


def test_a_second_scenario_s_host_knows_its_hid_by_identity():
    """``DagAddress.host`` interns addresses for the life of the process,
    so a scenario built second gets the address interned first.  With
    HIDs and NIDs interned too, that address holds the second scenario's
    own HID object: the receiving host settles ``intent is hid`` and no
    hop of a packet calls ``Host._addressed_to_me`` or ``XID.__eq__``
    once the router has compiled its decision."""
    for _build in range(2):
        sim, host_a, chain, host_b = line(1)
        got = []
        host_b.register_handler(PacketType.DATA, lambda p, port: got.append(p))
        dst = DagAddress.host(host_b.hid, chain[-1].nid)
        src = DagAddress.host(host_a.hid, chain[0].nid)
        for _packet in range(2):  # the first compiles the decision
            host_a.send(Packet(PacketType.DATA, dst=dst, src=src, payload={}))
            frames = Counter()

            def hook(frame, event, arg):
                if event == "call":
                    frames[frame.f_code.co_qualname] += 1

            sys.setprofile(hook)
            try:
                sim.run()
            finally:
                sys.setprofile(None)
        assert len(got) == 2 and dst.intent is host_b.hid
        assert frames["Host._addressed_to_me"] == frames["XID.__eq__"] == 0
