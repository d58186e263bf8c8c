"""Tests for loss models."""

import random

import pytest

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss


def test_noloss_never_drops():
    model = NoLoss()
    assert not any(model.dropped(t * 0.01) for t in range(1000))


def test_bernoulli_rate_zero_and_one():
    rng = random.Random(1)
    assert not any(BernoulliLoss(0.0, rng).dropped(0.0) for _ in range(100))
    assert all(BernoulliLoss(1.0, rng).dropped(0.0) for _ in range(100))


def test_bernoulli_empirical_rate():
    rng = random.Random(7)
    model = BernoulliLoss(0.27, rng)
    drops = sum(model.dropped(0.0) for _ in range(20_000))
    assert drops / 20_000 == pytest.approx(0.27, abs=0.02)


def test_bernoulli_rejects_bad_rate():
    with pytest.raises(Exception):
        BernoulliLoss(1.5, random.Random(0))


def test_gilbert_elliott_empirical_average():
    rng = random.Random(3)
    model = GilbertElliottLoss(average_rate=0.27, rng=rng)
    # Sample at a packet-like cadence over a long horizon.
    samples = 50_000
    drops = sum(model.dropped(i * 0.002) for i in range(samples))
    assert drops / samples == pytest.approx(0.27, abs=0.04)


def test_gilbert_elliott_losses_are_bursty():
    """Consecutive-drop runs should be much longer than Bernoulli's."""
    rng = random.Random(11)
    model = GilbertElliottLoss(average_rate=0.27, rng=rng)
    outcomes = [model.dropped(i * 0.002) for i in range(50_000)]

    def mean_run(values):
        runs, current = [], 0
        for value in values:
            if value:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return sum(runs) / len(runs) if runs else 0.0

    bernoulli = random.Random(11)
    bern_outcomes = [bernoulli.random() < 0.27 for _ in range(50_000)]
    assert mean_run(outcomes) > 3 * mean_run(bern_outcomes)


def test_gilbert_elliott_time_reversal_rejected():
    model = GilbertElliottLoss(average_rate=0.27, rng=random.Random(0))
    model.dropped(10.0)
    with pytest.raises(ValueError):
        model.dropped(5.0)


def test_gilbert_elliott_rate_bounds_validated():
    with pytest.raises(ValueError):
        GilbertElliottLoss(average_rate=0.001, rng=random.Random(0), good_loss=0.02)


def test_gilbert_elliott_extreme_fractions():
    rng = random.Random(5)
    always_good = GilbertElliottLoss(
        average_rate=0.02, rng=rng, good_loss=0.02, bad_loss=0.9
    )
    drops = sum(always_good.dropped(i * 0.01) for i in range(5000))
    assert drops / 5000 == pytest.approx(0.02, abs=0.01)
