"""Pluggable cache-eviction policies.

The paper's §V ("Content Cache Management Policy") leaves cache policy
exploration to future work; we implement the standard family so the
ablation bench can compare them under staged-content workloads.

A policy tracks cache events (:meth:`on_insert`, :meth:`on_access`,
:meth:`on_remove`) and, when the store is full, nominates a victim CID.
Pinned entries are never nominated (the store filters them out by
passing only evictable candidates).
"""

from __future__ import annotations

import abc
import random
from collections import OrderedDict
from typing import Iterable, Optional

from repro.errors import ConfigurationError
from repro.xia.ids import XID


class EvictionPolicy(abc.ABC):
    """Interface for choosing cache victims."""

    @abc.abstractmethod
    def on_insert(self, cid: XID, now: float) -> None:
        """A chunk was inserted."""

    @abc.abstractmethod
    def on_access(self, cid: XID, now: float) -> None:
        """A cached chunk was served."""

    @abc.abstractmethod
    def on_remove(self, cid: XID) -> None:
        """A chunk left the store (evicted or explicitly removed)."""

    @abc.abstractmethod
    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        """Pick a CID to evict from ``candidates`` (never empty)."""

    def expired(self, now: float) -> list[XID]:
        """CIDs that should be dropped regardless of pressure."""
        return []


class LruEviction(EvictionPolicy):
    """Evict the least recently used chunk."""

    def __init__(self) -> None:
        self._order: OrderedDict[XID, None] = OrderedDict()

    def on_insert(self, cid: XID, now: float) -> None:
        self._order[cid] = None
        self._order.move_to_end(cid)

    def on_access(self, cid: XID, now: float) -> None:
        if cid in self._order:
            self._order.move_to_end(cid)

    def on_remove(self, cid: XID) -> None:
        self._order.pop(cid, None)

    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        allowed = set(candidates)
        for cid in self._order:
            if cid in allowed:
                return cid
        return None


class FifoEviction(EvictionPolicy):
    """Evict in insertion order, ignoring accesses."""

    def __init__(self) -> None:
        self._order: OrderedDict[XID, None] = OrderedDict()

    def on_insert(self, cid: XID, now: float) -> None:
        if cid not in self._order:
            self._order[cid] = None

    def on_access(self, cid: XID, now: float) -> None:
        pass

    def on_remove(self, cid: XID) -> None:
        self._order.pop(cid, None)

    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        allowed = set(candidates)
        for cid in self._order:
            if cid in allowed:
                return cid
        return None


class LfuEviction(EvictionPolicy):
    """Evict the least frequently used chunk (ties: oldest insert)."""

    def __init__(self) -> None:
        self._counts: OrderedDict[XID, int] = OrderedDict()

    def on_insert(self, cid: XID, now: float) -> None:
        self._counts.setdefault(cid, 0)

    def on_access(self, cid: XID, now: float) -> None:
        if cid in self._counts:
            self._counts[cid] += 1

    def on_remove(self, cid: XID) -> None:
        self._counts.pop(cid, None)

    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        allowed = set(candidates)
        best: Optional[XID] = None
        best_count = None
        for cid, count in self._counts.items():
            if cid in allowed and (best_count is None or count < best_count):
                best, best_count = cid, count
        return best


class RandomEviction(EvictionPolicy):
    """Evict a uniformly random chunk."""

    def __init__(self) -> None:
        self._rng = random.Random(0)
        self._members: set[XID] = set()

    def on_insert(self, cid: XID, now: float) -> None:
        self._members.add(cid)

    def on_access(self, cid: XID, now: float) -> None:
        pass

    def on_remove(self, cid: XID) -> None:
        self._members.discard(cid)

    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        pool = sorted(set(candidates) & self._members)
        if not pool:
            return None
        return pool[self._rng.randrange(len(pool))]


class TtlEviction(EvictionPolicy):
    """Entries expire ``ttl`` seconds after insert; pressure evicts the oldest."""

    def __init__(self, ttl: float) -> None:
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be > 0, got {ttl}")
        self.ttl = ttl
        self._inserted_at: OrderedDict[XID, float] = OrderedDict()

    def on_insert(self, cid: XID, now: float) -> None:
        self._inserted_at[cid] = now
        self._inserted_at.move_to_end(cid)

    def on_access(self, cid: XID, now: float) -> None:
        pass

    def on_remove(self, cid: XID) -> None:
        self._inserted_at.pop(cid, None)

    def choose_victim(self, candidates: Iterable[XID], now: float) -> Optional[XID]:
        allowed = set(candidates)
        for cid in self._inserted_at:
            if cid in allowed:
                return cid
        return None

    def expired(self, now: float) -> list[XID]:
        return [
            cid
            for cid, inserted in self._inserted_at.items()
            if now - inserted >= self.ttl
        ]


def make_eviction_policy(name: str, **kwargs) -> EvictionPolicy:
    """Factory by name: ``lru``, ``fifo``, ``lfu``, ``random``, ``ttl``."""
    registry = {
        "lru": LruEviction,
        "fifo": FifoEviction,
        "lfu": LfuEviction,
        "random": RandomEviction,
        "ttl": TtlEviction,
    }
    try:
        cls = registry[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown eviction policy {name!r}; choose from {sorted(registry)}"
        ) from None
    return cls(**kwargs)
