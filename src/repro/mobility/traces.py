"""Connectivity traces: binary on/off timelines and their file format.

A trace records the periods during which the vehicle had usable WiFi
coverage (Fig. 7(a) plots exactly this: 1 = connected, 0 = not).  The
on-disk format is a plain text file::

    # softstage-trace v1
    # duration <seconds>
    <start> <end>
    <start> <end>
    ...

with one connected interval per line.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import TraceFormatError
from repro.mobility.coverage import Coverage, CoverageWindow

_MAGIC = "# softstage-trace v1"


class ConnectivityTrace:
    """An ordered list of non-overlapping connected intervals."""

    def __init__(
        self, intervals: Iterable[tuple[float, float]], duration: float
    ) -> None:
        self.intervals = sorted((float(a), float(b)) for a, b in intervals)
        self.duration = float(duration)
        if not math.isfinite(self.duration):
            raise TraceFormatError(f"non-finite duration {self.duration}")
        last_end = 0.0
        for start, end in self.intervals:
            if not (math.isfinite(start) and math.isfinite(end)):
                raise TraceFormatError(f"non-finite interval ({start}, {end})")
            if start < last_end:
                raise TraceFormatError(
                    f"overlapping/unsorted interval ({start}, {end})"
                )
            if end <= start:
                raise TraceFormatError(f"empty interval ({start}, {end})")
            if end > self.duration + 1e-9:
                raise TraceFormatError(
                    f"interval ({start}, {end}) exceeds duration {self.duration}"
                )
            last_end = end

    # -- stats ---------------------------------------------------------------

    @property
    def connected_time(self) -> float:
        return sum(end - start for start, end in self.intervals)

    @property
    def coverage_fraction(self) -> float:
        return self.connected_time / self.duration if self.duration else 0.0

    def encounter_durations(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    # -- conversion -----------------------------------------------------------

    def to_coverage(self, aps: Sequence[str]) -> Coverage:
        """Map intervals onto APs round-robin (successive encounters on
        a drive are different APs, so staged content stays behind)."""
        if not aps:
            raise TraceFormatError("need at least one AP name")
        windows = [
            CoverageWindow(aps[i % len(aps)], start, end)
            for i, (start, end) in enumerate(self.intervals)
        ]
        return Coverage(windows)

    # -- file I/O ----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        lines = [_MAGIC, f"# duration {self.duration}"]
        lines += [f"{start} {end}" for start, end in self.intervals]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ConnectivityTrace":
        text = Path(path).read_text(encoding="utf-8")
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != _MAGIC:
            raise TraceFormatError(f"{path}: missing trace header")
        duration = None
        intervals = []
        for line in lines[1:]:
            if line.startswith("# duration"):
                try:
                    duration = float(line.split()[-1])
                except ValueError as exc:
                    raise TraceFormatError(f"bad duration line: {line!r}") from exc
            elif line.startswith("#"):
                continue
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise TraceFormatError(f"bad interval line: {line!r}")
                try:
                    intervals.append((float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise TraceFormatError(f"bad interval line: {line!r}") from exc
        if duration is None:
            raise TraceFormatError(f"{path}: missing duration")
        return cls(intervals, duration)

    def __repr__(self) -> str:
        return (
            f"<ConnectivityTrace {len(self.intervals)} encounters, "
            f"{self.coverage_fraction:.0%} coverage over {self.duration:.0f}s>"
        )
