"""Unit helpers.

Conventions used throughout the library:

- time is in **seconds** (floats),
- data sizes are in **bytes** (ints where exactness matters),
- rates are in **bits per second**.

These helpers make call sites read like the paper: ``mbps(60)``,
``2 * MB``, ``ms(20)``.
"""

from __future__ import annotations

#: Data size multiplier (SI decimal, matching how the paper and
#: networking literature quote file/chunk sizes such as "64 MB").
MB = 1_000_000


def mbps(value: float) -> float:
    """Megabits per second -> bits per second."""
    return value * 1e6


def ms(value: float) -> float:
    """Milliseconds -> seconds."""
    return value * 1e-3
