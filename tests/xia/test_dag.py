"""Tests for DAG addresses and fallback semantics."""

import pytest

from repro.errors import AddressError
from repro.xia import CID, DagAddress, HID, NID, SID


CHUNK = CID(b"chunk payload")
SERVER_HID = HID("origin-server")
SERVER_NID = NID("origin-net")
EDGE_HID = HID("edge-cache")
EDGE_NID = NID("edge-a")


def test_content_address_shape():
    address = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    assert address.intent == CHUNK
    assert address.routes == ((), (SERVER_NID, SERVER_HID))


def test_content_address_type_checked():
    with pytest.raises(AddressError):
        DagAddress.content(SERVER_HID, SERVER_NID, SERVER_HID)
    with pytest.raises(AddressError):
        DagAddress.content(CHUNK, SERVER_HID, SERVER_HID)


def test_host_address_with_and_without_nid():
    direct = DagAddress.host(SERVER_HID)
    assert direct.routes == ((),)
    routed = DagAddress.host(SERVER_HID, SERVER_NID)
    assert routed.routes == ((SERVER_NID,),)
    assert routed.intent == SERVER_HID


def test_service_address():
    sid = SID("staging-vnf")
    address = DagAddress.service(sid, EDGE_NID, EDGE_HID)
    assert address.intent == sid
    assert address.routes == ((), (EDGE_NID, EDGE_HID))


def test_route_may_not_contain_intent():
    with pytest.raises(AddressError):
        DagAddress(SERVER_HID, routes=((SERVER_HID,),))


def test_next_candidates_priority_order():
    address = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    # Nothing visited: try the CID first, then the fallback NID.
    assert address.next_candidates() == [CHUNK, SERVER_NID]
    # Inside the server network: NID satisfied, so try the HID.
    assert address.next_candidates({SERVER_NID}) == [CHUNK, SERVER_HID]
    # At the server host: all waypoints satisfied; only the intent remains.
    assert address.next_candidates({SERVER_NID, SERVER_HID}) == [CHUNK]


def test_next_candidates_deduplicates():
    address = DagAddress(CHUNK, routes=((), ()))
    assert address.next_candidates() == [CHUNK]


def test_replace_fallback_rewrites_route_keeps_intent():
    original = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    staged = original.replace_fallback(EDGE_NID, EDGE_HID)
    assert staged.intent == CHUNK
    assert staged.routes == ((), (EDGE_NID, EDGE_HID))
    assert original.routes == ((), (SERVER_NID, SERVER_HID))  # unchanged


def test_replace_fallback_without_direct_route():
    address = DagAddress.host(SERVER_HID, SERVER_NID)
    moved = address.replace_fallback(EDGE_NID, EDGE_HID)
    assert moved.routes == ((EDGE_NID, EDGE_HID),)


def test_fallback_accessors():
    address = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    assert address.fallback_hid == SERVER_HID
    assert DagAddress(CHUNK).fallback_hid is None


def test_to_string_spells_each_route_down_to_the_intent():
    svc = SID("svc")
    for address, text in (
        (DagAddress.content(CHUNK, SERVER_NID, SERVER_HID),
         f"{CHUNK!r} | {SERVER_NID!r} -> {SERVER_HID!r} -> {CHUNK!r}"),
        (DagAddress.host(SERVER_HID, SERVER_NID),
         f"{SERVER_NID!r} -> {SERVER_HID!r}"),
        (DagAddress.host(SERVER_HID), f"{SERVER_HID!r}"),
        (DagAddress.service(svc, EDGE_NID, EDGE_HID),
         f"{svc!r} | {EDGE_NID!r} -> {EDGE_HID!r} -> {svc!r}"),
    ):
        assert address.to_string() == text


def test_value_semantics():
    a = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    b = DagAddress.content(CHUNK, SERVER_NID, SERVER_HID)
    assert a == b
    assert hash(a) == hash(b)
    assert a != DagAddress.content(CHUNK, EDGE_NID, EDGE_HID)


def test_immutability():
    address = DagAddress.host(SERVER_HID)
    with pytest.raises(AttributeError):
        address.intent = EDGE_HID


def test_host_addresses_are_interned():
    hid, nid = HID("host-x"), NID("net-x")
    assert DagAddress.host(hid, nid) is DagAddress.host(hid, nid)
    assert DagAddress.host(hid) is DagAddress.host(hid)
    assert DagAddress.host(hid) is not DagAddress.host(hid, nid)
    # Equal XIDs built separately name the same host: same instance.
    assert DagAddress.host(HID("host-x"), NID("net-x")) is DagAddress.host(hid, nid)
    # Interning is an identity shortcut only; value semantics hold.
    assert DagAddress.host(hid, nid) == DagAddress(hid, routes=((nid,),))
    with pytest.raises(AddressError):
        DagAddress.host(nid)
    with pytest.raises(AddressError):
        DagAddress.host(hid, hid)


def test_host_interning_survives_the_table_bound(monkeypatch):
    from repro.xia import dag

    monkeypatch.setattr(dag, "HOST_TABLE_LIMIT", 4)
    monkeypatch.setattr(dag, "_interned_hosts", {})
    nid = NID("net")
    kept = DagAddress.host(HID("h0"), nid)
    for index in range(1, 10):
        address = DagAddress.host(HID(f"h{index}"), nid)
        assert address is DagAddress.host(HID(f"h{index}"), nid)
        assert len(dag._interned_hosts) <= 4
    # The table was cleared on the way: a fresh but equal instance,
    # interned again from here on.
    again = DagAddress.host(HID("h0"), nid)
    assert again == kept and again is not kept
    assert again is DagAddress.host(HID("h0"), nid)
