"""Measurement helpers: the bus-fed metrics collector."""

from repro.metrics.collector import MetricsCollector

__all__ = [
    "MetricsCollector",
]
