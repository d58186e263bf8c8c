"""Measurement probes: time series and scalar monitors."""

from __future__ import annotations

import math


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


class Monitor:
    """Streaming scalar statistics (count/mean/min/max)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"monitor {self.name!r} has no observations")
        return self._mean

    def __repr__(self) -> str:
        if self.count == 0:
            return f"<Monitor {self.name!r} empty>"
        return (
            f"<Monitor {self.name!r} n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )
