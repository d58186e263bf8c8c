"""Shared bench configuration.

The profile comes from the environment, decoded in one place —
:meth:`repro.experiments.microbench.BenchProfile.from_env`: the default
(32 MB, seeds (0, 1)), ``REPRO_BENCH_QUICK=1`` (16 MB, one seed,
~minutes), ``REPRO_BENCH_PAPER=1`` (the paper's full 64 MB, three
seeds), with ``REPRO_BENCH_SEEDS``/``REPRO_BENCH_JOBS`` on top.

Every bench prints the regenerated table with the paper's value
alongside, and asserts the *shape* (who wins, trend direction), never
absolute numbers.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.microbench import BenchProfile
from repro.util import MB


@pytest.fixture(scope="session")
def profile() -> BenchProfile:
    return BenchProfile.from_env()


def run_once(benchmark, fn, rounds=None, warmup_rounds=None):
    """Run a harness under pytest-benchmark timing.

    Historically one shot (rounds=1, no warm-up) — right for the long
    table-regenerating harnesses, too noisy for kernel microbenches.
    Callers (or the environment) can opt into a shared warm-up and
    median-of-N repeats:

    - ``REPRO_BENCH_ROUNDS=n`` — repeat n times; pytest-benchmark
      reports the median alongside min/max;
    - ``REPRO_BENCH_WARMUP=n`` — n untimed warm-up rounds first
      (fills allocator pools, imports, and branch caches).

    Explicit arguments win over the environment.
    """
    if rounds is None:
        rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "1"))
    if warmup_rounds is None:
        warmup_rounds = int(os.environ.get("REPRO_BENCH_WARMUP", "0"))
    return benchmark.pedantic(
        fn, rounds=max(rounds, 1), iterations=1,
        warmup_rounds=max(warmup_rounds, 0),
    )


def strict_shapes(profile: BenchProfile) -> bool:
    """Whether trend-direction assertions should be enforced.

    The quick smoke profile (small file, one seed) verifies that
    everything *runs* and SoftStage wins; the full profiles
    additionally assert the paper's trend directions, which need the
    real download length to show.
    """
    return profile.file_size >= 32 * MB
