"""Property-based tests for DAG addresses."""

from hypothesis import given, strategies as st

from repro.xia import CID, DagAddress, HID, NID
from repro.xia.ids import XID


@st.composite
def xids(draw, kind="any"):
    payload = draw(st.binary(min_size=1, max_size=8))
    if kind == "cid":
        return CID(payload)
    if kind == "nid":
        return NID(payload)
    if kind == "hid":
        return HID(payload)
    maker = draw(st.sampled_from([CID, NID, HID]))
    return maker(payload)


@st.composite
def content_addresses(draw):
    return DagAddress.content(
        draw(xids("cid")), draw(xids("nid")), draw(xids("hid"))
    )


@given(content_addresses())
def test_candidates_always_end_at_intent(address):
    visited: set[XID] = set()
    for _ in range(10):
        candidates = address.next_candidates(visited)
        assert candidates, "there is always something to try"
        assert candidates[0] == address.intent or candidates
        head = candidates[0]
        if head == address.intent:
            break
        visited.add(head)
    else:  # pragma: no cover - would mean non-termination
        raise AssertionError("walking the DAG did not reach the intent")


@given(content_addresses(), xids("nid"), xids("hid"))
def test_replace_fallback_preserves_intent(address, nid, hid):
    staged = address.replace_fallback(nid, hid)
    assert staged.intent == address.intent
    assert staged.routes[-1] == (nid, hid)
    assert staged.fallback_hid == hid


@given(content_addresses())
def test_hash_equals_consistency(address):
    clone = DagAddress(address.intent, routes=address.routes)
    assert hash(clone) == hash(address)
    assert clone == address
