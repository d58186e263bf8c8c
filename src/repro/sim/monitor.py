"""Measurement probes: time series and scalar monitors."""

from __future__ import annotations

import math
from typing import Iterable, Optional


class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Unbounded: every sample is kept verbatim.  For bounded-memory
    aggregation over long runs use the mergeable sketches in
    :mod:`repro.obs.sketch`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"non-monotonic sample time {time} < {self.times[-1]} in {self.name!r}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean over ``[times[0], until]``, as a step function.

        ``until`` defaults to the last sample time.  The series is not
        defined before its first sample, so ``until`` earlier than
        ``times[0]`` raises :class:`ValueError` (it used to silently
        extrapolate the first value backwards); ``until`` equal to
        ``times[0]`` — a zero-width window — returns the first value.
        An ``until`` inside the series integrates only up to it.
        """
        if not self.values:
            raise ValueError(f"empty time series {self.name!r}")
        end = self.times[-1] if until is None else until
        first = self.times[0]
        if end < first:
            raise ValueError(
                f"until={end} precedes the first sample t={first} "
                f"in {self.name!r}"
            )
        if end == first:
            return self.values[0]
        total = 0.0
        for i, start in enumerate(self.times):
            if start >= end:
                break
            stop = self.times[i + 1] if i + 1 < len(self.times) else end
            total += self.values[i] * (min(stop, end) - start)
        return total / (end - first)

    def value_at(self, time: float) -> float:
        """Step-function value at ``time`` (last sample at or before it).

        The series is undefined before its first sample: ``time``
        earlier than ``times[0]`` (or an empty series) raises
        :class:`ValueError` rather than extrapolating backwards.
        """
        if not self.times or time < self.times[0]:
            raise ValueError(f"no sample at or before t={time} in {self.name!r}")
        # Binary search for rightmost sample <= time.
        lo, hi = 0, len(self.times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.times[mid] <= time:
                lo = mid
            else:
                hi = mid - 1
        return self.values[lo]


class Monitor:
    """Streaming scalar statistics (count/mean/variance/min/max)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"monitor {self.name!r} has no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        if self.count == 0:
            return f"<Monitor {self.name!r} empty>"
        return (
            f"<Monitor {self.name!r} n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )
