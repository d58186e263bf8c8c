"""Tests for Resource / Store / Container."""

import pytest

from repro.sim import Container, Resource, Simulator, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second, third = resource.request(), resource.request(), resource.request()
    assert first.triggered and second.triggered
    assert not third.triggered
    assert resource.count == 2
    assert resource.queue_length == 1


def test_resource_release_grants_next_waiter():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    first = resource.request()
    second = resource.request()
    resource.release(first)
    assert second.triggered
    assert resource.count == 1


def test_resource_context_manager_releases():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    order = []

    def worker(sim, name, hold):
        with resource.request() as req:
            yield req
            order.append((sim.now, name, "acquired"))
            yield sim.timeout(hold)
        order.append((sim.now, name, "released"))

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.run()
    assert order == [
        (0.0, "a", "acquired"),
        (2.0, "a", "released"),
        (2.0, "b", "acquired"),
        (3.0, "b", "released"),
    ]


def test_resource_fifo_ordering():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    acquired = []

    def worker(sim, name):
        with resource.request() as req:
            yield req
            acquired.append(name)
            yield sim.timeout(1.0)

    for name in "abcd":
        sim.process(worker(sim, name))
    sim.run()
    assert acquired == list("abcd")


def test_resource_cancel_removes_from_queue():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    resource.request()
    waiting = resource.request()
    waiting.cancel()
    assert resource.queue_length == 0


def test_resource_invalid_capacity():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("item")
    get = store.get()
    assert get.triggered and get.value == "item"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(sim):
        item = yield store.get()
        results.append((sim.now, item))

    def producer(sim):
        yield sim.timeout(3.0)
        store.put("late")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert results == [(3.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for item in (1, 2, 3):
        store.put(item)
    got = [store.get().value for _ in range(3)]
    assert got == [1, 2, 3]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.put("a").triggered
    blocked = store.put("b")
    assert not blocked.triggered
    store.get()
    assert blocked.triggered
    assert store.items == ["b"]


def test_store_get_with_predicate():
    sim = Simulator()
    store = Store(sim)
    for item in (1, 2, 3, 4):
        store.put(item)
    got = store.get(lambda x: x % 2 == 0)
    assert got.value == 2
    assert store.items == [1, 3, 4]


def test_store_predicate_waits_for_matching_item():
    sim = Simulator()
    store = Store(sim)
    results = []

    def consumer(sim):
        item = yield store.get(lambda x: x == "wanted")
        results.append((sim.now, item))

    def producer(sim):
        store.put("other")
        yield sim.timeout(2.0)
        store.put("wanted")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert results == [(2.0, "wanted")]
    assert store.items == ["other"]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    assert len(store) == 1


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------


def test_container_initial_level():
    sim = Simulator()
    container = Container(sim, capacity=10, initial=4)
    assert container.level == 4


def test_container_get_blocks_until_enough():
    sim = Simulator()
    container = Container(sim, capacity=100)
    results = []

    def consumer(sim):
        yield container.get(5)
        results.append(sim.now)

    def producer(sim):
        yield sim.timeout(1.0)
        container.put(3)
        yield sim.timeout(1.0)
        container.put(3)

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert results == [2.0]
    assert container.level == pytest.approx(1.0)


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    container = Container(sim, capacity=5, initial=5)
    blocked = container.put(2)
    assert not blocked.triggered
    container.get(3)
    assert blocked.triggered
    assert container.level == pytest.approx(4.0)


def test_container_rejects_bad_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=0)
    with pytest.raises(ValueError):
        Container(sim, capacity=5, initial=9)
    container = Container(sim, capacity=5)
    with pytest.raises(ValueError):
        container.put(-1)
    with pytest.raises(ValueError):
        container.get(-1)
