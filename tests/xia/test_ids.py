"""Tests for XIA identifiers."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.xia import CID, HID, NID, SID, XID, PrincipalType


def test_cid_is_sha1_of_content():
    payload = b"hello chunk"
    cid = CID(payload)
    assert cid.principal_type is PrincipalType.CID
    assert cid.id_bytes == hashlib.sha1(payload).digest()


def test_same_content_same_cid():
    assert CID(b"x") == CID(b"x")
    assert hash(CID(b"x")) == hash(CID(b"x"))


def test_different_content_different_cid():
    assert CID(b"x") != CID(b"y")


def test_hid_nid_sid_are_domain_separated():
    """The same key material yields different XIDs per principal type."""
    ids = {HID("key"), NID("key"), SID("key")}
    assert len(ids) == 3


def test_hid_accepts_str_and_bytes():
    assert HID("host-1") == HID(b"host-1")


def test_xid_is_immutable():
    xid = HID("h")
    with pytest.raises(AttributeError):
        xid.id_bytes = b"\x00" * 20


def test_xid_wrong_length_rejected():
    with pytest.raises(AddressError):
        XID(PrincipalType.CID, b"\x00" * 19)


def test_xid_bad_type_rejected():
    with pytest.raises(AddressError):
        XID("CID", b"\x00" * 20)


def test_short_is_prefix_of_hex():
    xid = HID("abc")
    assert xid.hex.startswith(xid.short)
    assert len(xid.short) == 8


def test_ordering_is_total():
    xids = sorted([HID("b"), CID(b"a"), NID("c"), SID("d")])
    assert xids == sorted(xids)


@given(st.binary(min_size=0, max_size=64))
def test_cid_deterministic(payload):
    assert CID(payload) == CID(payload)


@given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=64))
def test_cid_injective_on_samples(a, b):
    if a != b:
        assert CID(a) != CID(b)


def test_host_and_network_ids_are_interned_content_ids_are_not():
    assert HID("a") is HID("a") is HID(b"a")
    assert HID("a") is not HID("b")
    assert NID("n") is NID("n")
    # Interning changes identity only: a directly built XID is equal.
    direct = XID(PrincipalType.HID, HID("a").id_bytes)
    assert direct is not HID("a")
    assert direct == HID("a") and HID("a") == direct
    assert hash(direct) == hash(HID("a"))
    assert CID(b"x") == CID(b"x") and CID(b"x") is not CID(b"x")
