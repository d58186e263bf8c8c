"""Tests for unit helpers and validation."""

import pytest

from repro.errors import ConfigurationError
from repro.util import (
    MB,
    check_fraction,
    check_non_negative,
    check_positive,
    mbps,
    ms,
)


def test_size_constants():
    assert MB == 1_000_000


def test_rate_helpers():
    assert mbps(60) == 60_000_000


def test_time_helpers():
    assert ms(20) == pytest.approx(0.02)


def test_check_positive():
    assert check_positive("x", 1.5) == 1.5
    with pytest.raises(ConfigurationError):
        check_positive("x", 0)
    with pytest.raises(ConfigurationError):
        check_positive("x", -1)


def test_check_non_negative():
    assert check_non_negative("x", 0.0) == 0.0
    with pytest.raises(ConfigurationError):
        check_non_negative("x", -0.1)


def test_check_fraction():
    assert check_fraction("x", 0.5) == 0.5
    assert check_fraction("x", 0.0) == 0.0
    assert check_fraction("x", 1.0) == 1.0
    with pytest.raises(ConfigurationError):
        check_fraction("x", 1.01)
