"""Data-plane fast path: DAG plans, visited bitmasks, decision cache.

The bitmask/plan machinery must be observably identical to the old
per-packet frozenset walk (DESIGN.md §10), so the properties here
compare against a literal reimplementation of the historical
``next_candidates`` and the decision-cache tests drive real topologies
through route changes, service registration and store attachment.
"""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.net import Host, Link, Network
from repro.sim import Simulator
from repro.util import MB, mbps, ms
from repro.xia import CID, DagAddress, HID, NID
from repro.xia.ids import PrincipalType, SID, XID
from repro.xia.packet import Packet, PacketType
from repro.xia.router import XIARouter


def reference_candidates(address: DagAddress, visited) -> list[XID]:
    """The pre-bitmask ``next_candidates``: per-route scan over sets."""
    candidates: list[XID] = []
    for route in address.routes:
        candidate = address.intent
        for waypoint in route:
            if waypoint not in visited:
                candidate = waypoint
                break
        if candidate not in candidates:
            candidates.append(candidate)
    return candidates


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def xids(draw, kind="any"):
    payload = draw(st.binary(min_size=1, max_size=6))
    if kind == "cid":
        return CID(payload)
    if kind == "nid":
        return NID(payload)
    if kind == "hid":
        return HID(payload)
    maker = draw(st.sampled_from([CID, NID, HID, SID]))
    return maker(payload)


@st.composite
def random_dags(draw):
    """DAGs of every shape the codebase builds — the paper's
    ``CID | NID : HID``, host ``NID : HID``, plus arbitrary multi-route
    fallback shapes with shared waypoints."""
    shape = draw(st.sampled_from(["content", "host", "free"]))
    if shape == "content":
        return DagAddress.content(
            draw(xids("cid")), draw(xids("nid")), draw(xids("hid"))
        )
    if shape == "host":
        return DagAddress.host(draw(xids("hid")), draw(xids("nid")))
    pool = draw(st.lists(xids(), min_size=1, max_size=5, unique=True))
    intent = pool[0]
    waypoints = pool[1:]
    routes = draw(
        st.lists(
            st.lists(
                st.sampled_from(waypoints) if waypoints else st.nothing(),
                max_size=3,
            ),
            min_size=0,
            max_size=3,
        )
        if waypoints
        else st.just([[]])
    )
    return DagAddress(intent, routes=tuple(tuple(r) for r in routes) or ((),))


@st.composite
def dags_with_visited(draw):
    """A DAG plus a visited set mixing its own nodes and foreign XIDs."""
    address = draw(random_dags())
    members = list(address.plan.node_order)
    visited = set(draw(st.lists(st.sampled_from(members), max_size=len(members))))
    for foreign in draw(st.lists(xids(), max_size=2)):
        visited.add(foreign)
    return address, frozenset(visited)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def test_plan_assigns_one_bit_per_unique_node():
    address = DagAddress.content(CID(b"c"), NID(b"n"), HID(b"h"))
    plan = address.plan
    assert len(plan.bit_of) == 3
    assert sorted(plan.bit_of.values()) == [1, 2, 4]
    # Lazy and cached on the (immutable) address itself.
    assert address.plan is plan


def test_plan_memoizes_candidate_walks():
    address = DagAddress.content(CID(b"c"), NID(b"n"), HID(b"h"))
    plan = address.plan
    first = plan.candidates(0)
    assert plan.candidates(0) is first  # table lookup, not a re-walk
    assert list(first) == reference_candidates(address, frozenset())


@given(dags_with_visited())
def test_bitmask_candidates_match_frozenset_semantics(case):
    address, visited = case
    assert address.next_candidates(visited) == reference_candidates(
        address, visited
    )


@given(dags_with_visited())
def test_mask_roundtrip_keeps_dag_members(case):
    address, visited = case
    plan = address.plan
    members = set(address.plan.node_order)
    assert plan.visited_xids(plan.mask_of(visited)) == visited & members


@given(random_dags(), st.data())
def test_packet_mark_visited_matches_reference_walk(address, data):
    """Marking nodes one by one, the packet's candidate walk tracks the
    historical set-based walk at every step."""
    packet = Packet(PacketType.DATA, dst=address, src=address)
    members = list(address.plan.node_order)
    marks = data.draw(
        st.lists(st.sampled_from(members), max_size=2 * len(members))
    )
    visited: set[XID] = set()
    for xid in marks:
        packet.mark_visited(xid)
        visited.add(xid)
        assert packet.visited == frozenset(visited)
        assert address.next_candidates(packet.visited) == reference_candidates(
            address, visited
        )


def test_mark_visited_of_foreign_xid_is_noop():
    address = DagAddress.host(HID(b"h"), NID(b"n"))
    packet = Packet(PacketType.DATA, dst=address, src=address)
    packet.mark_visited(HID(b"somewhere-else"))
    assert packet.visited_mask == 0
    assert packet.visited == frozenset()


def test_visited_setter_accepts_sets():
    address = DagAddress.content(CID(b"c"), NID(b"n"), HID(b"h"))
    packet = Packet(PacketType.DATA, dst=address, src=address)
    packet.visited = {NID(b"n"), HID(b"unrelated")}
    assert packet.visited == frozenset({NID(b"n")})


# ---------------------------------------------------------------------------
# Decision cache
# ---------------------------------------------------------------------------


def line_network():
    """hostA - r1 - r2 - hostB (all wired, static routes)."""
    sim = Simulator()
    net = Network(sim)
    host_a = net.add_device(Host(sim, "hostA", HID("hostA")))
    r1 = net.add_device(XIARouter(sim, "r1", HID("r1"), NID("net1")))
    r2 = net.add_device(XIARouter(sim, "r2", HID("r2"), NID("net2")))
    host_b = net.add_device(Host(sim, "hostB", HID("hostB")))
    net.connect(host_a, r1, Link(sim, "a-r1", mbps(100), ms(1)))
    net.connect(r1, r2, Link(sim, "r1-r2", mbps(100), ms(1)))
    net.connect(r2, host_b, Link(sim, "r2-b", mbps(100), ms(1)))
    net.register_network(r1.nid, r1)
    net.register_network(r2.nid, r2)
    net.build_static_routes()
    return sim, net, host_a, r1, r2, host_b


def _control_packet(host_a, r1, r2, host_b):
    return Packet(
        PacketType.CONTROL,
        dst=DagAddress.host(host_b.hid, r2.nid),
        src=DagAddress.host(host_a.hid, r1.nid),
        payload={},
    )


def test_decision_cache_counts_hits_and_misses():
    sim, net, host_a, r1, r2, host_b = line_network()
    got = []
    host_b.register_handler(PacketType.CONTROL, lambda p, port: got.append(p))
    for _ in range(5):
        host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert len(got) == 5
    # Each router compiles each distinct (dst, mask) key exactly once.
    assert sim.fwd_cache_misses == 2
    assert sim.fwd_cache_hits == 8
    assert r1._decisions and r2._decisions


def test_colliding_dag_hashes_get_their_own_decisions():
    """The cache key is ``(hash of the DAG, mask)``: an entry answers
    only for the DAG it was compiled from, so two destinations forced
    onto one hash are a miss each — never each other's decision."""
    sim, net, host_a, r1, r2, host_b = line_network()
    to_b = DagAddress.host(host_b.hid, r2.nid)
    to_a = DagAddress(host_a.hid, routes=((r1.nid,),))  # not interned
    object.__setattr__(to_a, "_hash", hash(to_b))
    assert to_a != to_b and hash(to_a) == hash(to_b)
    got = {"hostA": [], "hostB": []}
    for host in (host_a, host_b):
        host.register_handler(
            PacketType.CONTROL, lambda p, port, name=host.name: got[name].append(p))
    src = DagAddress.host(r1.hid, r1.nid)
    for dst in (to_b, to_a):
        r1.handle_packet(
            Packet(PacketType.CONTROL, dst=dst, src=src, payload={}), None)
    assert (sim.fwd_cache_misses, sim.fwd_cache_hits) == (2, 0)
    assert len(r1._decisions) == 1  # one slot: the later DAG took it over
    r1.handle_packet(
        Packet(PacketType.CONTROL, dst=to_a, src=src, payload={}), None)
    assert (sim.fwd_cache_misses, sim.fwd_cache_hits) == (2, 1)
    # The egress cache of locally-originated packets follows the rule.
    for dst in (to_b, to_a):
        r1.send(Packet(PacketType.CONTROL, dst=dst, src=src, payload={}))
    sim.run()
    assert (len(got["hostA"]), len(got["hostB"])) == (3, 2)
    assert r1.dropped_unroutable == 0


@pytest.mark.parametrize("system, hits, misses", [
    ("xftp", 18774, 12), ("softstage", 26500, 16),
])
def test_golden_pair_forwarding_cache_counts_are_the_pre_rekey_literals(
        system, hits, misses):
    """Captured on the commit before the key became C-hashed ints (PR
    23): re-keying must not turn one hit into a miss or back."""
    result = run_download(
        system, params=MicrobenchParams(file_size=4 * MB), seed=0, profile=True)
    report = result.profile.report()
    assert (report["fwd_cache_hits"], report["fwd_cache_misses"]) == (
        hits, misses)


def test_remove_hid_route_invalidates_and_drops():
    sim, net, host_a, r1, r2, host_b = line_network()
    host_b.register_handler(PacketType.CONTROL, lambda p, port: None)
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert r2._decisions
    r2.engine.remove_hid_route(host_b.hid)
    assert r2._decisions == {}
    # The stale FORWARD decision must not be replayed.
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert r2.dropped_unroutable == 1


def test_set_route_invalidates_and_restores_forwarding():
    sim, net, host_a, r1, r2, host_b = line_network()
    got = []
    host_b.register_handler(PacketType.CONTROL, lambda p, port: got.append(p))
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    port_to_b = r2.engine.port_for(host_b.hid)
    r2.engine.remove_hid_route(host_b.hid)
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert len(got) == 1  # dropped at r2 while the route was gone
    r2.engine.set_hid_route(host_b.hid, port_to_b)
    assert r2._decisions == {}
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert len(got) == 2


def test_service_registration_invalidates_decisions():
    sim, net, host_a, r1, r2, host_b = line_network()
    host_b.register_handler(PacketType.CONTROL, lambda p, port: None)
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert r1._decisions
    r1.register_service(SID(b"staging-vnf"), lambda p, port: None)
    assert r1._decisions == {}


def test_store_and_handler_attachment_invalidate_decisions():
    sim, net, host_a, r1, r2, host_b = line_network()
    host_b.register_handler(PacketType.CONTROL, lambda p, port: None)
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert r1._decisions

    class _Store:
        def has(self, cid):
            return False

    r1.content_store = _Store()
    assert r1._decisions == {}
    host_a.send(_control_packet(host_a, r1, r2, host_b))
    sim.run()
    assert r1._decisions
    r1.cid_request_handler = lambda p, port: None
    assert r1._decisions == {}


def test_cached_decision_rechecks_store_per_packet():
    """The store lookup is the one step the cache must NOT freeze: the
    same (dst, mask) key first misses the store (request forwarded),
    then hits it after staging (request served locally)."""
    sim, net, host_a, r1, r2, host_b = line_network()
    cid = CID(b"the-chunk")
    dst = DagAddress.content(cid, r2.nid, host_b.hid)
    src = DagAddress.host(host_a.hid, r1.nid)

    class _Store:
        def __init__(self):
            self.cids = set()

        def has(self, cid):
            return cid in self.cids

    store = _Store()
    served = []
    r1.content_store = store
    r1.cid_request_handler = lambda p, port: served.append(p)
    reached_origin = []
    host_b.register_handler(
        PacketType.CHUNK_REQUEST, lambda p, port: reached_origin.append(p)
    )

    def request():
        return Packet(PacketType.CHUNK_REQUEST, dst=dst, src=src,
                      payload={"session": 1})

    host_a.send(request())
    sim.run()
    assert len(reached_origin) == 1 and not served  # miss: fell back to origin
    store.cids.add(cid)  # the chunk gets staged at the edge
    host_a.send(request())
    sim.run()
    assert len(served) == 1 and len(reached_origin) == 1
    assert served[0].visited  # CID marked visited on the served request


def test_data_packets_never_served_from_store():
    """Only CHUNK_REQUESTs are answered by the cache; DATA packets of an
    ongoing transfer route past a store that holds their CID."""
    sim, net, host_a, r1, r2, host_b = line_network()
    cid = CID(b"the-chunk")
    dst = DagAddress.content(cid, r2.nid, host_b.hid)
    src = DagAddress.host(host_a.hid, r1.nid)

    class _Store:
        def has(self, _cid):
            return True

    served = []
    r1.content_store = _Store()
    r1.cid_request_handler = lambda p, port: served.append(p)
    delivered = []
    host_b.register_handler(PacketType.DATA, lambda p, port: delivered.append(p))
    host_a.send(Packet(PacketType.DATA, dst=dst, src=src, payload={}))
    sim.run()
    assert not served and len(delivered) == 1


def test_forwarding_engine_single_table_views():
    sim, net, host_a, r1, r2, host_b = line_network()
    # One dict for every principal type, each setter typed.
    assert {x.principal_type for x in r1.engine.routes} == {
        PrincipalType.NID, PrincipalType.HID}
    with pytest.raises(ConfigurationError):
        r1.engine.set_nid_route(host_a.hid, r1.port(0))  # wrong principal


# ---------------------------------------------------------------------------
# Egress cache: XIARouter.send for locally-originated packets
# ---------------------------------------------------------------------------


def reference_route(router, packet):
    """The historical per-packet ``XIARouter._route`` walk."""
    plan = packet.dst.plan
    mask = packet.visited_mask
    candidates = plan.candidates(mask)
    if router.nid in candidates:
        mask |= plan.bit_of[router.nid]
        packet.visited_mask = mask
        candidates = plan.candidates(mask)
    for candidate in candidates:
        if candidate.principal_type in (PrincipalType.HID, PrincipalType.NID):
            if candidate == router.hid:
                continue
            out = router.engine.port_for(candidate)
            if out is not None:
                return out
    return None


def egress_destinations(host_a, r1, r2, host_b):
    """Host, content and service DAGs as seen from r1: remote and
    local networks, a local and an unknown host, our own addresses."""
    cid, sid = CID(b"chunk"), SID(b"staging-vnf")
    return [
        DagAddress.host(host_b.hid, r2.nid),     # toward another network
        DagAddress.host(host_a.hid, r1.nid),     # our NID, attached host
        DagAddress.host(host_a.hid),             # bare attached HID
        DagAddress.host(HID("nobody"), r1.nid),  # our NID, unknown host
        DagAddress.host(HID("nobody")),          # unroutable
        DagAddress.host(r1.hid, r1.nid),         # ourselves
        DagAddress.content(cid, r2.nid, host_b.hid),
        DagAddress.content(cid, r1.nid, host_a.hid),
        DagAddress.content(cid, r1.nid, r1.hid),
        DagAddress.service(sid, r2.nid, r2.hid),
        DagAddress.service(sid, r1.nid, r1.hid),
    ]


def test_cached_egress_equals_the_uncached_walk():
    sim, net, host_a, r1, r2, host_b = line_network()
    r1.register_service(SID(b"staging-vnf"), lambda p, port: None)
    for dst in egress_destinations(host_a, r1, r2, host_b):
        for mask in range(1 << len(dst.plan.node_order)):
            expected = Packet(PacketType.DATA, dst=dst, src=dst)
            expected.visited_mask = mask
            out = reference_route(r1, expected)
            for _attempt in ("compiled", "replayed"):
                packet = Packet(PacketType.DATA, dst=dst, src=dst)
                packet.visited_mask = mask
                assert r1._route(packet) is out
                assert packet.visited_mask == expected.visited_mask


def test_egress_cache_serves_repeat_sends_without_touching_fwd_counters():
    sim, net, host_a, r1, r2, host_b = line_network()
    got = []
    host_b.register_handler(PacketType.CONTROL, lambda p, port: got.append(p))
    dst = DagAddress.host(host_b.hid, r2.nid)
    for _ in range(4):
        r1.send(Packet(PacketType.CONTROL, dst=dst,
                       src=DagAddress.host(r1.hid, r1.nid), payload={}))
    sim.run()
    assert len(got) == 4
    assert [key for key in r1._decisions if len(key) == 3] == [(hash(dst), 0, "egress")]
    # Only r2's handle_packet lookups count: one compile, three replays.
    assert (sim.fwd_cache_misses, sim.fwd_cache_hits) == (1, 3)


def test_egress_cache_is_invalidated_with_the_route_table():
    sim, net, host_a, r1, r2, host_b = line_network()
    dst = DagAddress.host(host_a.hid, r1.nid)
    packet = Packet(PacketType.CONTROL, dst=dst, src=dst, payload={})
    port_to_a = r1._route(packet)
    assert port_to_a is r1.engine.port_for(host_a.hid) and r1._decisions
    r1.engine.remove_hid_route(host_a.hid)
    assert r1._decisions == {}
    packet = Packet(PacketType.CONTROL, dst=dst, src=dst, payload={})
    r1.send(packet)  # the stale port must not be replayed
    assert r1.dropped_unroutable == 1
    r1.engine.set_hid_route(host_a.hid, port_to_a)
    packet = Packet(PacketType.CONTROL, dst=dst, src=dst, payload={})
    assert r1._route(packet) is port_to_a
