"""A fixed pure-stdlib loop timed between iterations.

The sandbox's effective speed drifts by ±15 % over minutes, which no
in-run averaging removes: medians of 24 s windows of identical work
spread by ~12 % (interquartile range over median).  Timing this loop
next to every iteration and reporting host time in units of it
(``wall_ref_ratio``) cancels the drift — the same windows spread by
~4 %.  The loop touches nothing under ``src/``, so no change to the
program moves it: heap pushes and pops of event-like tuples, slotted
objects, a method call and a dict store per step, the simulator's diet.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Steps per round (~60 ms on the 2-core sandbox).  Fixed: the ratio is
#: only comparable between runs that use the same loop.
ROUND_STEPS = 50_000


class _Node:
    __slots__ = ("fired",)

    def __init__(self) -> None:
        self.fired = 0

    def fire(self, count: int) -> None:
        self.fired += count


def reference_round() -> float:
    """Host seconds for one round of the fixed loop."""
    started = perf_counter()
    heap: list = []
    nodes = [_Node() for _ in range(64)]
    seen: dict[int, float] = {}
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for i in range(ROUND_STEPS):
        seq += 1
        push(heap, ((i * 7919) % 10007 * 1e-3, 1, seq, nodes[i & 63]))
        if i & 1:
            when, _priority, _seq, node = pop(heap)
            node.fire(1)
            seen[i & 4095] = when
    return perf_counter() - started
