"""Tests for content publishing."""

import pytest

from repro.errors import ConfigurationError
from repro.xcache import ContentPublisher, ContentStore
from repro.xia import HID, NID
from repro.xia.ids import PrincipalType


def make_publisher(capacity=float("inf")):
    return ContentPublisher(
        ContentStore(capacity_bytes=capacity), NID("origin"), HID("server")
    )


def test_publish_synthetic_chunking():
    publisher = make_publisher()
    content = publisher.publish_synthetic("file", 5_500_000, 2_000_000)
    assert len(content) == 3
    assert [c.size_bytes for c in content.chunks] == [
        2_000_000, 2_000_000, 1_500_000,
    ]
    assert content.total_bytes == 5_500_000


def test_published_chunks_land_pinned_in_store():
    publisher = make_publisher()
    content = publisher.publish_synthetic("file", 2_000_000, 1_000_000)
    for chunk in content.chunks:
        assert publisher.store.has(chunk.cid)
    assert publisher.store.pinned_count == len(content)


def test_addresses_point_at_origin():
    publisher = make_publisher()
    content = publisher.publish_synthetic("file", 1_000_000, 1_000_000)
    address = content.addresses[0]
    assert address.intent.principal_type is PrincipalType.CID
    assert address.routes[-1] == (NID("origin"), HID("server"))
    assert address.fallback_hid == HID("server")


def test_duplicate_name_rejected():
    publisher = make_publisher()
    publisher.publish_synthetic("file", 1000, 1000)
    with pytest.raises(ConfigurationError):
        publisher.publish_synthetic("file", 1000, 1000)


def test_manifest_lookup():
    publisher = make_publisher()
    content = publisher.publish_synthetic("file", 1000, 1000)
    assert publisher.published == {"file": content}


def test_origin_store_too_small_raises():
    publisher = make_publisher(capacity=1_000)
    with pytest.raises(ConfigurationError):
        publisher.publish_synthetic("big", 10_000, 5_000)


def test_publisher_type_checks():
    with pytest.raises(ConfigurationError):
        ContentPublisher(ContentStore(), HID("x"), HID("server"))
    with pytest.raises(ConfigurationError):
        ContentPublisher(ContentStore(), NID("origin"), NID("x"))
