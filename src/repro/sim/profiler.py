"""A lightweight simulator profiler.

Answers "where does the wall-clock go?" for a simulation run without
external tooling: per-handler-class callback time, event-queue depth,
and heap-op counters, collected by the kernel itself (see
``Simulator.step``) at the cost of two ``perf_counter()`` calls per
step while installed — and a single ``is None`` check when not.

Keys are intentionally coarse so the table stays readable at any
scale: processes profile under ``process:<generator name>`` (e.g.
``process:download``, ``process:_stage_one``) and plain events under
``event:<event name>`` — ``event:arrival``, ``event:tx-done``,
``event:rto``, ``event:timeout`` — falling back to the class name for
unnamed ones (``event:Event``).

Wall-clock numbers stay out of the event stream, so traces remain
replay-exact with a profiler installed.

Usage::

    profiler = SimProfiler(sim).install()
    sim.run(until=...)
    print(profiler.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.core import Event, Simulator
from repro.sim.process import Process
from repro.xia import packet as packet_mod


@dataclass(frozen=True)
class HandlerStats:
    """Aggregate wall-clock cost of one handler class."""

    key: str
    calls: int
    total_s: float

    @property
    def mean_us(self) -> float:
        return self.total_s / self.calls * 1e6 if self.calls else 0.0


class SimProfiler:
    """Kernel-fed wall-clock and queue profiler for one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.steps = 0
        self.max_depth = 0
        self._depth_sum = 0
        self._by_key: dict[str, list] = {}  # key -> [total_s, calls]
        self._pushes_at_install = 0
        self._pool_reuses_at_install = 0
        self._pool_allocs_at_install = 0
        self._fwd_hits_at_install = 0
        self._fwd_misses_at_install = 0
        self._pkt_reuses_at_install = 0
        self._pkt_allocs_at_install = 0
        self._installed = False

    # -- wiring ------------------------------------------------------------

    def install(self) -> "SimProfiler":
        if self.sim._profiler is not None and self.sim._profiler is not self:
            raise RuntimeError("another profiler is already installed")
        self.sim._profiler = self
        self._pushes_at_install = self.sim.heap_pushes
        self._pool_reuses_at_install = self.sim.pool_reuses
        self._pool_allocs_at_install = self.sim.pool_allocs
        self._fwd_hits_at_install = self.sim.fwd_cache_hits
        self._fwd_misses_at_install = self.sim.fwd_cache_misses
        # The packet free list is module-wide (unlike the per-simulator
        # event pool), so the snapshot isolates this run's share.
        self._pkt_reuses_at_install = packet_mod.pool_reuses
        self._pkt_allocs_at_install = packet_mod.pool_allocs
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self.sim._profiler is self:
            self.sim._profiler = None
        self._installed = False

    def __enter__(self) -> "SimProfiler":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- kernel callback ---------------------------------------------------

    def record_step(self, event: Event, elapsed: float, depth: int) -> None:
        """Called by ``Simulator.step`` after each callback batch."""
        if isinstance(event, Process):
            key = f"process:{event.name or 'anonymous'}"
        else:
            key = f"event:{event.name.split('(')[0] or type(event).__name__}"
        cell = self._by_key.get(key)
        if cell is None:
            cell = self._by_key[key] = [0.0, 0]
        cell[0] += elapsed
        cell[1] += 1
        self.steps += 1
        self._depth_sum += depth
        if depth > self.max_depth:
            self.max_depth = depth

    # -- results -----------------------------------------------------------

    @property
    def heap_pushes(self) -> int:
        """Events pushed onto the queue since :meth:`install`."""
        return self.sim.heap_pushes - self._pushes_at_install

    @property
    def heap_pops(self) -> int:
        """Events popped (= steps profiled)."""
        return self.steps

    @property
    def mean_depth(self) -> float:
        return self._depth_sum / self.steps if self.steps else 0.0

    @property
    def pool_reuses(self) -> int:
        """Pooled-event acquisitions served allocation-free since install."""
        return self.sim.pool_reuses - self._pool_reuses_at_install

    @property
    def pool_allocs(self) -> int:
        """Pooled-event acquisitions that had to allocate since install."""
        return self.sim.pool_allocs - self._pool_allocs_at_install

    @property
    def pool_reuse_rate(self) -> float:
        """Fraction of pooled-event acquisitions served from the free list."""
        total = self.pool_reuses + self.pool_allocs
        return self.pool_reuses / total if total else 0.0

    @property
    def fwd_cache_hits(self) -> int:
        """Forwarding decisions replayed from a router cache since install."""
        return self.sim.fwd_cache_hits - self._fwd_hits_at_install

    @property
    def fwd_cache_misses(self) -> int:
        """Forwarding decisions compiled (cache misses) since install."""
        return self.sim.fwd_cache_misses - self._fwd_misses_at_install

    @property
    def fwd_cache_hit_rate(self) -> float:
        """Fraction of per-hop forwarding decisions served from cache."""
        total = self.fwd_cache_hits + self.fwd_cache_misses
        return self.fwd_cache_hits / total if total else 0.0

    @property
    def packet_pool_reuses(self) -> int:
        """Packet acquisitions served from the free list since install."""
        return packet_mod.pool_reuses - self._pkt_reuses_at_install

    @property
    def packet_pool_allocs(self) -> int:
        """Packet acquisitions that had to allocate since install."""
        return packet_mod.pool_allocs - self._pkt_allocs_at_install

    @property
    def packet_pool_reuse_rate(self) -> float:
        """Fraction of packet acquisitions served allocation-free."""
        total = self.packet_pool_reuses + self.packet_pool_allocs
        return self.packet_pool_reuses / total if total else 0.0

    def stats(self) -> list[HandlerStats]:
        """Per-key stats, most expensive first (ties by key name)."""
        rows = [
            HandlerStats(key=key, calls=calls, total_s=total)
            for key, (total, calls) in self._by_key.items()
        ]
        rows.sort(key=lambda r: (-r.total_s, r.key))
        return rows

    def report(self) -> dict[str, object]:
        """A flat snapshot (JSON-friendly) of everything measured."""
        out: dict[str, object] = {
            "steps": self.steps,
            "heap_pushes": self.heap_pushes,
            "heap_pops": self.heap_pops,
            "queue_depth_max": self.max_depth,
            "queue_depth_mean": self.mean_depth,
            "pool_reuses": self.pool_reuses,
            "pool_allocs": self.pool_allocs,
            "pool_reuse_rate": self.pool_reuse_rate,
            "fwd_cache_hits": self.fwd_cache_hits,
            "fwd_cache_misses": self.fwd_cache_misses,
            "fwd_cache_hit_rate": self.fwd_cache_hit_rate,
            "packet_pool_reuses": self.packet_pool_reuses,
            "packet_pool_allocs": self.packet_pool_allocs,
            "packet_pool_reuse_rate": self.packet_pool_reuse_rate,
        }
        for row in self.stats():
            out[f"wall.{row.key}.total_s"] = row.total_s
            out[f"wall.{row.key}.calls"] = row.calls
        return out

    def render(self, title: str = "Simulator profile", top: Optional[int] = 15) -> str:
        """A fixed-width table of the hottest handler classes."""
        rows = self.stats()
        total = sum(r.total_s for r in rows) or 1.0
        header = (
            f"{'handler':>28} | {'calls':>9} | {'total (ms)':>10} | "
            f"{'mean (µs)':>9} | {'share':>6}"
        )
        rule = "-" * len(header)
        lines = [
            title,
            rule,
            f"steps={self.steps}  heap pushes={self.heap_pushes}  "
            f"pops={self.heap_pops}  queue depth mean={self.mean_depth:.1f} "
            f"max={self.max_depth}",
            f"event pool: {self.pool_reuses} reused / {self.pool_allocs} "
            f"allocated ({self.pool_reuse_rate:.1%} allocation-free)",
            f"packet pool: {self.packet_pool_reuses} reused / "
            f"{self.packet_pool_allocs} allocated "
            f"({self.packet_pool_reuse_rate:.1%} allocation-free)",
            f"forwarding cache: {self.fwd_cache_hits} hits / "
            f"{self.fwd_cache_misses} misses "
            f"({self.fwd_cache_hit_rate:.1%} hit rate)",
            rule,
            header,
            rule,
        ]
        shown = rows if top is None else rows[:top]
        for row in shown:
            lines.append(
                f"{row.key:>28} | {row.calls:>9} | {row.total_s * 1e3:>10.2f} | "
                f"{row.mean_us:>9.2f} | {row.total_s / total:>6.1%}"
            )
        if top is not None and len(rows) > top:
            rest = sum(r.total_s for r in rows[top:])
            lines.append(
                f"{f'... {len(rows) - top} more':>28} | {'':>9} | "
                f"{rest * 1e3:>10.2f} | {'':>9} | {rest / total:>6.1%}"
            )
        lines.append(rule)
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "installed" if self._installed else "detached"
        return f"<SimProfiler {state} steps={self.steps} keys={len(self._by_key)}>"
