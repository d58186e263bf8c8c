"""Tests for the content store and eviction policies."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CacheMiss, ConfigurationError
from repro.xcache import (
    Chunk,
    ContentStore,
    FifoEviction,
    LfuEviction,
    LruEviction,
    RandomEviction,
    TtlEviction,
    make_eviction_policy,
)


def make_chunk(index: int, size: int = 100) -> Chunk:
    return Chunk.synthetic("content", index, size)


# ---------------------------------------------------------------------------
# ContentStore basics
# ---------------------------------------------------------------------------


def test_put_get_roundtrip():
    store = ContentStore()
    chunk = make_chunk(0)
    assert store.put(chunk)
    assert store.has(chunk.cid)
    assert store.get(chunk.cid) is chunk
    assert store.hits == 1


def test_get_miss_raises_and_counts():
    store = ContentStore()
    with pytest.raises(CacheMiss):
        store.get(make_chunk(0).cid)
    assert store.misses == 1
    assert store.hit_ratio == 0.0


def test_duplicate_put_is_idempotent():
    store = ContentStore()
    chunk = make_chunk(0)
    store.put(chunk)
    store.put(chunk)
    assert len(store) == 1
    assert store.used_bytes == chunk.size_bytes


def test_capacity_eviction_lru_order():
    clock = [0.0]
    store = ContentStore(capacity_bytes=300, eviction=LruEviction(), clock=lambda: clock[0])
    chunks = [make_chunk(i) for i in range(3)]
    for chunk in chunks:
        store.put(chunk)
    store.get(chunks[0].cid)  # make chunk 0 most recent
    store.put(make_chunk(99))  # forces one eviction
    assert store.has(chunks[0].cid)
    assert not store.has(chunks[1].cid)  # LRU victim
    assert store.evictions == 1


def test_chunk_larger_than_capacity_rejected():
    store = ContentStore(capacity_bytes=50)
    chunk = make_chunk(0, size=100)
    assert not store.put(chunk)
    assert not store.has(chunk.cid) and store.used_bytes == 0


def test_pinned_chunks_never_evicted():
    store = ContentStore(capacity_bytes=300)
    pinned = make_chunk(0)
    store.put(pinned, pin=True)
    for i in range(1, 10):
        store.put(make_chunk(i))
    assert store.has(pinned.cid)


def test_put_fails_when_everything_pinned():
    store = ContentStore(capacity_bytes=200)
    store.put(make_chunk(0), pin=True)
    store.put(make_chunk(1), pin=True)
    chunk = make_chunk(2)
    assert not store.put(chunk)
    assert not store.has(chunk.cid) and store.used_bytes == 200


def test_unpin_allows_eviction():
    store = ContentStore(capacity_bytes=200)
    first = make_chunk(0)
    store.put(first, pin=True)
    store.put(make_chunk(1))
    store.unpin(first.cid)
    store.put(make_chunk(2))
    assert len(store) == 2


def test_pin_absent_chunk_raises():
    store = ContentStore()
    with pytest.raises(CacheMiss):
        store.pin(make_chunk(0).cid)


def test_remove_frees_space():
    store = ContentStore(capacity_bytes=100)
    chunk = make_chunk(0)
    store.put(chunk)
    store.remove(chunk.cid)
    assert store.used_bytes == 0
    assert store.put(make_chunk(1))


def test_peek_does_not_count_stats():
    store = ContentStore()
    chunk = make_chunk(0)
    store.put(chunk)
    assert store.peek(chunk.cid) is chunk
    assert store.peek(make_chunk(1).cid) is None
    assert store.hits == 0 and store.misses == 0


def test_store_requires_positive_capacity():
    with pytest.raises(ConfigurationError):
        ContentStore(capacity_bytes=0)


# ---------------------------------------------------------------------------
# Eviction policies
# ---------------------------------------------------------------------------


def test_fifo_ignores_access_pattern():
    clock = [0.0]
    store = ContentStore(capacity_bytes=300, eviction=FifoEviction(), clock=lambda: clock[0])
    chunks = [make_chunk(i) for i in range(3)]
    for chunk in chunks:
        store.put(chunk)
    store.get(chunks[0].cid)  # access does not protect under FIFO
    store.put(make_chunk(99))
    assert not store.has(chunks[0].cid)


def test_lfu_keeps_hot_chunks():
    store = ContentStore(capacity_bytes=300, eviction=LfuEviction())
    hot, warm, cold = make_chunk(0), make_chunk(1), make_chunk(2)
    for chunk in (hot, warm, cold):
        store.put(chunk)
    for _ in range(5):
        store.get(hot.cid)
    store.get(warm.cid)
    store.put(make_chunk(99))
    assert not store.has(cold.cid)
    assert store.has(hot.cid) and store.has(warm.cid)


def test_random_eviction_evicts_member():
    store = ContentStore(capacity_bytes=300, eviction=RandomEviction())
    for i in range(3):
        store.put(make_chunk(i))
    store.put(make_chunk(99))
    assert len(store) == 3


def test_ttl_expires_entries():
    clock = [0.0]
    store = ContentStore(eviction=TtlEviction(ttl=10.0), clock=lambda: clock[0])
    chunk = make_chunk(0)
    store.put(chunk)
    clock[0] = 5.0
    assert store.has(chunk.cid)
    clock[0] = 11.0
    assert not store.has(chunk.cid)


def test_ttl_does_not_expire_pinned():
    clock = [0.0]
    store = ContentStore(eviction=TtlEviction(ttl=10.0), clock=lambda: clock[0])
    chunk = make_chunk(0)
    store.put(chunk, pin=True)
    clock[0] = 100.0
    assert store.has(chunk.cid)


def test_make_eviction_policy_factory():
    assert isinstance(make_eviction_policy("lru"), LruEviction)
    assert isinstance(make_eviction_policy("TTL", ttl=5.0), TtlEviction)
    with pytest.raises(ConfigurationError):
        make_eviction_policy("mystery")


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_store_never_exceeds_capacity(indexes):
    """Property: used_bytes <= capacity regardless of insert sequence."""
    store = ContentStore(capacity_bytes=500)
    for index in indexes:
        store.put(make_chunk(index))
        assert store.used_bytes <= 500
        assert store.used_bytes == sum(
            chunk.size_bytes for cid, chunk in store._chunks.items()
        )
