"""Coverage timelines: when each AP is audible and how strongly.

A :class:`Coverage` is a set of :class:`CoverageWindow` intervals, one
per (AP, visibility period), with linearly interpolated RSS.  Builders
construct the paper's evaluation patterns:

- :func:`alternating_coverage` — the Fig. 6 micro-benchmark pattern:
  the client "stays *Encounter Time* in each network, and disconnects
  from it for *Disconnection Time* before joining the other one";
- :func:`overlapping_coverage` — the §IV-D handoff pattern: 12 s
  encounters whose coverage overlaps the next network's by 3 s.

Both patterns repeat over a horizon (a day, for the testbed) that a
download ends long before, so their windows are generated on demand:
a query builds the pattern only as far as the time it asks about.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

#: A comfortable indoor/roadside RSS in dBm, used when the scenario
#: does not care about signal dynamics.
DEFAULT_RSS_DBM = -55.0
#: RSS at the rim of a cell, where an overlapping window starts and ends.
EDGE_RSS_DBM = -80.0
#: Windows a pattern-backed coverage builds at its first query; each
#: later extension doubles what is built.
FIRST_BLOCK = 64


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


#: The order a coverage keeps its windows in (a stable sort, so windows
#: with equal start and AP keep the order they were made in).
_ORDER = attrgetter("start", "ap")


class _Pattern:
    """A periodic window pattern, generated in start order from where the
    last :meth:`take` stopped.

    Its state is plain values (APs, durations, the next cycle and its
    start), not a generator, so a coverage pickles into ``--jobs``
    workers mid-run.  ``len()`` and :meth:`end_time` walk the whole
    pattern's starts with the same float accumulation, building no
    window.
    """

    def __init__(self, aps: Sequence[str], encounter_time: float,
                 total_time: float) -> None:
        self.aps = tuple(aps)
        self.encounter_time = encounter_time
        self.total_time = total_time
        #: Where :meth:`take` resumes: the next cycle and its start.
        self.next_cycle = 0
        self.next_start = 0.0

    def take(self, count: int) -> list[CoverageWindow]:
        """The next whole cycles, at least ``count`` windows of them
        unless the pattern ends first."""
        raise NotImplementedError

    def _walk(self) -> tuple[int, float]:
        """The whole pattern's window count and latest window end."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self._walk()[0]

    def end_time(self) -> float:
        return self._walk()[1]


class _Alternating(_Pattern):
    """E seconds on AP_i, D seconds dark, repeat while the start is
    before the horizon."""

    def __init__(self, aps: Sequence[str], encounter_time: float,
                 disconnection_time: float, total_time: float) -> None:
        super().__init__(aps, encounter_time, total_time)
        self.period = encounter_time + disconnection_time

    def take(self, count: int) -> list[CoverageWindow]:
        aps, encounter, period = self.aps, self.encounter_time, self.period
        total = self.total_time
        cycle, start = self.next_cycle, self.next_start
        windows = []
        while start < total and len(windows) < count:
            windows.append(
                CoverageWindow(aps[cycle % len(aps)], start, start + encounter)
            )
            cycle += 1
            start += period
        self.next_cycle, self.next_start = cycle, start
        return windows

    def _walk(self) -> tuple[int, float]:
        count, last, start = 0, 0.0, 0.0
        while start < self.total_time:
            count += 1
            last = max(last, start + self.encounter_time)
            start += self.period
        return count, last


class _Overlapping(_Pattern):
    """Encounters whose first and last ``overlap_time`` seconds ramp the
    RSS between the cell's edge and its peak, each starting where the
    previous one's ramp-down does."""

    def __init__(self, aps: Sequence[str], encounter_time: float,
                 overlap_time: float, total_time: float) -> None:
        super().__init__(aps, encounter_time, total_time)
        self.overlap_time = overlap_time
        self.cycles = math.ceil(total_time / (encounter_time - overlap_time)) + 1

    def take(self, count: int) -> list[CoverageWindow]:
        aps, encounter, ramp = self.aps, self.encounter_time, self.overlap_time
        cycles, total = self.cycles, self.total_time
        rss_peak, rss_edge = DEFAULT_RSS_DBM, EDGE_RSS_DBM
        cycle, start = self.next_cycle, self.next_start
        windows = []
        # The first cycle always runs; a later one only if it starts
        # before the horizon.
        while (len(windows) < count and cycle < cycles
               and (cycle == 0 or start < total)):
            ap = aps[cycle % len(aps)]
            end = start + encounter
            # Piecewise: ramp-up, plateau, ramp-down.
            windows.append(
                CoverageWindow(ap, start, start + ramp, rss_edge, rss_peak)
            )
            if end - ramp > start + ramp:
                windows.append(
                    CoverageWindow(ap, start + ramp, end - ramp, rss_peak, rss_peak)
                )
            windows.append(CoverageWindow(ap, end - ramp, end, rss_peak, rss_edge))
            cycle += 1
            start = end - ramp
        self.next_cycle, self.next_start = cycle, start
        return windows

    def _walk(self) -> tuple[int, float]:
        encounter, ramp = self.encounter_time, self.overlap_time
        count, last, cycle, start = 0, 0.0, 0, 0.0
        while cycle < self.cycles and (cycle == 0 or start < self.total_time):
            end = start + encounter
            count += 3 if end - ramp > start + ramp else 2
            last = max(last, end)
            cycle += 1
            start = end - ramp
        return count, last


class Coverage:
    """A queryable set of coverage windows.

    The windows come from a list (sorted here) or from a periodic
    pattern, which yields them in start order and is built only as far
    as a query needs: :meth:`visible_at` and :meth:`change_times` extend
    the built prefix, in doubling blocks, until a window starts after
    the time asked about.  A window not yet built starts no earlier than
    every built one, so the answers are those of the whole set.
    """

    def __init__(self, windows: Union[Iterable[CoverageWindow], _Pattern]) -> None:
        self._pattern: Optional[_Pattern] = None
        self._windows: list[CoverageWindow] = []
        #: Queries before this time need nothing more built: the latest
        #: built start, or infinity once every window is built.
        self._frontier = -math.inf
        if isinstance(windows, _Pattern):
            self._pattern = windows
        else:
            self._windows = sorted(windows, key=_ORDER)
            self._frontier = math.inf
        #: The index of the built windows, rebuilt when they grow: the
        #: change times and, per segment between two consecutive ones,
        #: the windows that cover it (in build order).
        self._times: list[float] = []
        self._segments: Optional[list[tuple[CoverageWindow, ...]]] = None

    def _reach(self, time: float) -> list[tuple[CoverageWindow, ...]]:
        """Build until a window starts after ``time`` (or the pattern
        ends) and index what is built."""
        windows, pattern = self._windows, self._pattern
        while pattern is not None and time >= self._frontier:
            count = max(len(windows), FIRST_BLOCK)
            block = pattern.take(count)
            windows += block
            windows.sort(key=_ORDER)
            self._segments = None
            if len(block) < count:
                self._pattern = pattern = None
                self._frontier = math.inf
            else:
                self._frontier = windows[-1].start
        if self._segments is None:
            self._index()
        return self._segments

    def _index(self) -> None:
        windows = self._windows
        times = {window.start for window in windows}
        times.update([window.end for window in windows])
        times = self._times = sorted(times)
        covering: list[list[CoverageWindow]] = [[] for _ in times[1:]]
        for window in windows:
            first = bisect_left(times, window.start)
            last = bisect_left(times, window.end)
            for segment in covering[first:last]:
                segment.append(window)
        self._segments = [tuple(segment) for segment in covering]

    def visible_at(self, time: float) -> dict[str, float]:
        """Map of AP name -> RSS for APs audible at ``time``.

        No change time lies strictly inside a segment, so a window
        contains ``time`` exactly when it covers ``time``'s segment:
        one bisect instead of a scan over every window.
        """
        segments = self._segments
        if segments is None or time >= self._frontier:
            segments = self._reach(time)
        index = bisect_right(self._times, time) - 1
        if not 0 <= index < len(segments):
            return {}
        return {window.ap: window.rss_at(time) for window in segments[index]}

    def change_times(self) -> Iterator[float]:
        """The sorted unique times at which the visible set changes,
        built as they are read.

        After :meth:`_reach` a window not yet built starts at or after
        the latest built start, which is itself a change time, so the
        next built change time is the next one of the whole set.
        """
        time = -math.inf
        while True:
            if self._segments is None or time >= self._frontier:
                self._reach(time)
            times = self._times
            index = bisect_right(times, time)
            if index == len(times):
                return
            time = times[index]
            yield time

    def end_time(self) -> float:
        if self._pattern is not None:
            return self._pattern.end_time()
        return max((window.end for window in self._windows), default=0.0)

    def __len__(self) -> int:
        if self._pattern is not None:
            return len(self._pattern)
        return len(self._windows)

    def __repr__(self) -> str:
        return f"<Coverage {len(self)} windows until {self.end_time():.1f}s>"


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
    return Coverage(
        _Alternating(aps, encounter_time, disconnection_time, total_time)
    )


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
    check_positive("encounter_time", encounter_time)
    check_positive("overlap_time", overlap_time)
    if overlap_time >= encounter_time:
        raise ConfigurationError("overlap must be shorter than the encounter")
    if len(aps) < 2:
        raise ConfigurationError("overlap pattern needs at least two APs")
    return Coverage(_Overlapping(aps, encounter_time, overlap_time, total_time))
