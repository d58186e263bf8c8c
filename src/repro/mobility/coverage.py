"""Coverage timelines: when each AP is audible and how strongly.

A :class:`Coverage` is a set of :class:`CoverageWindow` intervals, one
per (AP, visibility period), with linearly interpolated RSS.  Builders
construct the paper's evaluation patterns:

- :func:`alternating_coverage` — the Fig. 6 micro-benchmark pattern:
  the client "stays *Encounter Time* in each network, and disconnects
  from it for *Disconnection Time* before joining the other one";
- :func:`overlapping_coverage` — the §IV-D handoff pattern: 12 s
  encounters whose coverage overlaps the next network's by 3 s.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

#: A comfortable indoor/roadside RSS in dBm, used when the scenario
#: does not care about signal dynamics.
DEFAULT_RSS_DBM = -55.0
#: RSS at the rim of a cell, where an overlapping window starts and ends.
EDGE_RSS_DBM = -80.0


@dataclass(frozen=True)
class CoverageWindow:
    """One contiguous period during which an AP is audible."""

    ap: str
    start: float
    end: float
    rss_start: float = DEFAULT_RSS_DBM
    rss_end: float = DEFAULT_RSS_DBM

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"window end {self.end} must be after start {self.start}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        return self.start <= time < self.end

    def rss_at(self, time: float) -> float:
        if not self.contains(time):
            raise ValueError(f"t={time} outside window [{self.start}, {self.end})")
        fraction = (time - self.start) / self.duration
        return self.rss_start + fraction * (self.rss_end - self.rss_start)


class Coverage:
    """A queryable set of coverage windows."""

    def __init__(self, windows: Iterable[CoverageWindow]) -> None:
        self.windows = sorted(windows, key=lambda w: (w.start, w.ap))
        #: Built on the first :meth:`visible_at`: the change times and,
        #: per segment between two consecutive ones, the windows that
        #: cover it (in ``windows`` order).
        self._times: list[float] = []
        self._segments: Optional[list[tuple[CoverageWindow, ...]]] = None

    def _index(self) -> list[tuple[CoverageWindow, ...]]:
        times = self._times = self.change_times()
        covering: list[list[CoverageWindow]] = [[] for _ in times[1:]]
        for window in self.windows:
            first = bisect_left(times, window.start)
            last = bisect_left(times, window.end)
            for segment in covering[first:last]:
                segment.append(window)
        self._segments = [tuple(segment) for segment in covering]
        return self._segments

    def visible_at(self, time: float) -> dict[str, float]:
        """Map of AP name -> RSS for APs audible at ``time``.

        No change time lies strictly inside a segment, so a window
        contains ``time`` exactly when it covers ``time``'s segment:
        one bisect instead of a scan over every window.
        """
        segments = self._segments
        if segments is None:
            segments = self._index()
        index = bisect_right(self._times, time) - 1
        if not 0 <= index < len(segments):
            return {}
        return {window.ap: window.rss_at(time) for window in segments[index]}

    def change_times(self) -> list[float]:
        """Sorted unique times at which the visible set changes."""
        times = {window.start for window in self.windows}
        times.update(window.end for window in self.windows)
        return sorted(times)

    def end_time(self) -> float:
        return max((window.end for window in self.windows), default=0.0)

    def __len__(self) -> int:
        return len(self.windows)

    def __repr__(self) -> str:
        return f"<Coverage {len(self.windows)} windows until {self.end_time():.1f}s>"


def alternating_coverage(
    aps: Sequence[str],
    encounter_time: float,
    disconnection_time: float,
    total_time: float,
) -> Coverage:
    """The Fig. 6 pattern: E seconds on AP_i, D seconds dark, repeat."""
    check_positive("encounter_time", encounter_time)
    check_non_negative("disconnection_time", disconnection_time)
    check_positive("total_time", total_time)
    if not aps:
        raise ConfigurationError("need at least one AP")
    windows = []
    ap_cycle = itertools.cycle(aps)
    start = 0.0
    while start < total_time:
        ap = next(ap_cycle)
        windows.append(CoverageWindow(ap, start, start + encounter_time))
        start += encounter_time + disconnection_time
    return Coverage(windows)


def overlapping_coverage(
    aps: Sequence[str],
    encounter_time: float,
    overlap_time: float,
    total_time: float,
) -> Coverage:
    """The §IV-D handoff pattern: consecutive networks overlap.

    Each AP's window lasts ``encounter_time``; the next AP's window
    begins ``overlap_time`` before the current one ends.  RSS ramps up
    from :data:`EDGE_RSS_DBM` to :data:`DEFAULT_RSS_DBM` over the first
    overlap and back down over the last, so an RSS-greedy policy
    naturally switches inside the overlap.
    """
    rss_peak, rss_edge = DEFAULT_RSS_DBM, EDGE_RSS_DBM
    check_positive("encounter_time", encounter_time)
    check_positive("overlap_time", overlap_time)
    if overlap_time >= encounter_time:
        raise ConfigurationError("overlap must be shorter than the encounter")
    if len(aps) < 2:
        raise ConfigurationError("overlap pattern needs at least two APs")
    windows = []
    ap_cycle = itertools.cycle(aps)
    start = 0.0
    count = math.ceil(total_time / (encounter_time - overlap_time)) + 1
    for _ in range(count):
        ap = next(ap_cycle)
        end = start + encounter_time
        ramp = overlap_time
        # Piecewise: ramp-up, plateau, ramp-down.
        windows.append(CoverageWindow(ap, start, start + ramp, rss_edge, rss_peak))
        if end - ramp > start + ramp:
            windows.append(
                CoverageWindow(ap, start + ramp, end - ramp, rss_peak, rss_peak)
            )
        windows.append(CoverageWindow(ap, end - ramp, end, rss_peak, rss_edge))
        start = end - overlap_time
        if start >= total_time:
            break
    return Coverage(windows)
