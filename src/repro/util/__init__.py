"""Small shared utilities: units, validation, text tables."""

from repro.util.table import render_table
from repro.util.units import MB, mbps, ms
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "MB",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "mbps",
    "ms",
    "render_table",
]
