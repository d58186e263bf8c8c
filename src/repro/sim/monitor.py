"""The measurement probe: an append-only time series."""

from __future__ import annotations


class TimeSeries:
    """An append-only series of ``(time, value)`` samples.

    Unbounded: every sample is kept verbatim.
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
