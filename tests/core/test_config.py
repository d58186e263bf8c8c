"""Validation tests for configuration objects."""

import pytest

from repro.core.client import DownloadResult
from repro.errors import ConfigurationError
from repro.transport.config import TransportConfig, XIA_CHUNK, XIA_STREAM


def test_transport_config_validation():
    with pytest.raises(ConfigurationError):
        TransportConfig(name="x", mss_bytes=0)
    with pytest.raises(ConfigurationError):
        TransportConfig(name="x", ack_every=0)
    with pytest.raises(ConfigurationError):
        TransportConfig(name="x", initial_cwnd=0.5)


def test_transport_with_copies():
    varied = XIA_STREAM.with_(mss_bytes=500)
    assert varied.mss_bytes == 500
    assert XIA_STREAM.mss_bytes == 1290  # original untouched
    assert varied.header_bytes == XIA_STREAM.header_bytes


def test_presets_are_distinct():
    assert XIA_CHUNK.verify_rate != float("inf")
    assert XIA_STREAM.verify_rate == float("inf")
    assert XIA_CHUNK.per_chunk_overhead > 0


def test_download_result_properties():
    result = DownloadResult(
        content_name="x", bytes_received=8_000_000, duration=4.0,
        chunks_completed=4, chunks_total=8, chunks_from_edge=3,
        chunks_from_origin=1, fallbacks=0, handoffs=2, staging_signals=5,
    )
    assert result.throughput_bps == pytest.approx(16e6)
    assert not result.completed
    assert result.edge_fraction == pytest.approx(0.75)
    done = DownloadResult(
        content_name="x", bytes_received=1, duration=0.0,
        chunks_completed=0, chunks_total=0, chunks_from_edge=0,
        chunks_from_origin=0, fallbacks=0, handoffs=0, staging_signals=0,
    )
    assert done.throughput_bps == 0.0
    assert done.edge_fraction == 0.0
