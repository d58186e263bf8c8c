"""Table III: parameter settings for the experiments.

Defaults and candidate values exactly as the paper lists them; the
micro-benchmarks vary one parameter at a time while keeping the rest
at their defaults.  Each :class:`ParameterRow` is the single
declaration of one Fig. 6 axis: every driver that sweeps the paper's
parameter space (``repro sweep``, the bench suite, the policy
tournament) enumerates :meth:`ParameterRow.points`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from repro.util import MB, mbps, ms


@dataclass(frozen=True)
class MicrobenchParams:
    """One point in the Fig. 6 parameter space (Table III)."""

    #: 2 MB ~ a 2-second 720p YouTube clip.
    chunk_size: int = 2 * MB
    #: 75th percentile of Cabernet encounter time (dense small cells).
    encounter_time: float = 12.0
    #: 25th percentile of Cabernet time-between-encounters.
    disconnection_time: float = 8.0
    #: Median wardriving packet loss.
    packet_loss: float = 0.27
    #: Typical moderately-congested WAN bottleneck.
    internet_bandwidth: float = mbps(60)
    #: Typical RTT to a CDN.
    internet_latency: float = ms(20)
    #: The file downloaded by every micro-benchmark.
    file_size: int = 64 * MB

    def with_(self, **changes) -> "MicrobenchParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class ParameterRow:
    """One row of Table III, which is also one panel of Fig. 6."""

    name: str
    note: str
    #: Fig. 6 panel letter, figure title and x-axis caption.
    panel: str
    title: str
    caption: str
    #: The :class:`MicrobenchParams` field this row varies.
    field: str
    #: The plotted values, in the order and the unit the paper prints
    #: them (the Table III default included).
    grid: tuple
    #: Printed value -> ``field`` value, and the unit a label appends.
    convert: Callable
    unit: str
    #: Gains the paper reports (Fig. 6 text), by point label.
    paper_gains: dict

    @property
    def default(self):
        """Table III's default *is* the :class:`MicrobenchParams` one."""
        return getattr(MicrobenchParams(), self.field)

    @property
    def values(self) -> tuple:
        """The grid as ``field`` values."""
        return tuple(self.convert(printed) for printed in self.grid)

    @property
    def candidates(self) -> tuple:
        """Table III's non-default values."""
        return tuple(v for v in self.values if v != self.default)

    def points(
        self, base: MicrobenchParams, ends_only: bool = False
    ) -> Iterator[tuple[str, MicrobenchParams, Optional[float]]]:
        """``(label, params, paper gain)`` per plotted value: ``base``
        with this row's field varied.  ``ends_only`` trims the grid to
        its endpoints plus the midpoint."""
        grid = self.grid
        if ends_only:
            grid = (grid[0], grid[(len(grid) - 1) // 2], grid[-1])
        for printed in grid:
            label = f"{printed}{self.unit}"
            params = base.with_(**{self.field: self.convert(printed)})
            yield label, params, self.paper_gains.get(label)


PARAMETER_TABLE: tuple[ParameterRow, ...] = (
    ParameterRow(
        "Chunk Size", "2 secs' 720p Youtube video clip",
        panel="a", title="chunk size", caption="chunk size",
        field="chunk_size", grid=(0.25, 0.625, 1.25, 2, 4, 10),
        convert=lambda mb: int(mb * MB), unit=" MB",
        paper_gains={"0.25 MB": 1.59, "10 MB": 1.96},
    ),
    ParameterRow(
        "Encounter Time",
        "Theoretical maximum duration associated with the same SSID",
        panel="b", title="encounter time", caption="encounter",
        field="encounter_time", grid=(3, 4, 12), convert=float, unit=" s",
        paper_gains={"3 s": 1.55, "12 s": 1.77},
    ),
    ParameterRow(
        "Disconnection Time", "Time between two consecutive encounters",
        panel="c", title="disconnection time", caption="disconnection",
        field="disconnection_time", grid=(8, 32, 100), convert=float,
        unit=" s", paper_gains={"8 s": 1.7, "32 s": 1.7, "100 s": 1.7},
    ),
    ParameterRow(
        "Packet Loss Rate",
        "Wardriving measurements in vehicular content delivery",
        panel="d", title="packet loss rate", caption="loss rate",
        field="packet_loss", grid=(22, 27, 37),
        convert=lambda percent: percent / 100, unit="%",
        paper_gains={"22%": 1.37, "37%": 1.77},
    ),
    ParameterRow(
        "Internet Bandwidth",
        "Typical bottleneck bandwidth in WAN with moderate congestion",
        panel="e", title="Internet bottleneck bandwidth", caption="bandwidth",
        field="internet_bandwidth", grid=(60, 30, 15), convert=mbps,
        unit=" Mbps", paper_gains={"60 Mbps": 1.77, "15 Mbps": 9.94},
    ),
    ParameterRow(
        "Internet Latency",
        "Typical RTT to CDN (e.g., web portals, streaming media, etc.)",
        panel="f", title="Internet latency", caption="latency",
        field="internet_latency", grid=(5, 10, 20, 50, 100), convert=ms,
        unit=" ms", paper_gains={"5 ms": 1.38, "100 ms": 2.3},
    ),
)

#: Fig. 6 panel letter -> the Table III row it sweeps.
PANELS: dict[str, ParameterRow] = {row.panel: row for row in PARAMETER_TABLE}

#: Chunk sizes of Fig. 6(a) with their QoE meaning (YouTube SDR
#: recommended bit rates: a 2-second clip at each resolution).
CHUNK_SIZE_LADDER: dict[str, int] = dict(zip(
    ("360p", "480p", "720p", "1080p", "1440p", "2160p"), PANELS["a"].values,
))
