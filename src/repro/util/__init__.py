"""Small shared utilities: units, validation, text tables."""

from repro.util.table import render_table
from repro.util.units import (
    GB,
    KB,
    MB,
    bits,
    bytes_to_mbit,
    gbps,
    kbps,
    mbit_to_bytes,
    mbps,
    ms,
    seconds_to_ms,
    us,
)
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "GB",
    "KB",
    "MB",
    "bits",
    "bytes_to_mbit",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "gbps",
    "kbps",
    "mbit_to_bytes",
    "mbps",
    "ms",
    "render_table",
    "seconds_to_ms",
    "us",
]
