"""Fig. 6 micro-benchmarks: one sweep driver per panel.

Each driver varies one Table III parameter, keeps the rest at their
defaults, downloads the same file with Xftp and with SoftStage, and
reports mean download times over the configured seeds plus the gain
the paper measured for that point.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, replace
from typing import IO, Optional, Sequence

from repro.experiments.parallel import SweepTask, run_tasks
from repro.experiments.params import MicrobenchParams
from repro.experiments.report import GainSeries
from repro.obs.wide import run_id_for
from repro.util import MB, mbps, ms


@dataclass(frozen=True)
class BenchProfile:
    """How heavy a bench run should be (defaults: the paper's 64 MB,
    three seeds; :meth:`from_env` picks what the bench suite runs)."""

    file_size: int = 64 * MB
    seeds: tuple[int, ...] = (0, 1, 2)
    #: Open file object every run's JSONL trace is appended to (one
    #: multi-run trace; run ids ``"{point}/{system}-seed{n}"`` keep
    #: the runs apart).  ``None`` leaves runs uninstrumented.
    trace_sink: Optional[IO[str]] = None
    #: Worker processes for sweeps (``1`` = sequential).  Tracing
    #: forces the sequential path: a shared open sink cannot cross
    #: process boundaries.
    jobs: int = 1
    #: Staging-policy registry name for the SoftStage runs ("" = the
    #: default reactive Eq. 1 behaviour and historical run ids).
    policy: str = ""

    @classmethod
    def from_env(cls) -> "BenchProfile":
        """The profile the ``REPRO_BENCH_*`` environment selects.

        Default: 32 MB, seeds (0, 1) — half the paper's size keeps the
        suite under an hour without changing a trend (gains are time
        ratios).  ``REPRO_BENCH_QUICK=1``: 16 MB, one seed (~minutes);
        ``REPRO_BENCH_PAPER=1``: the paper's 64 MB, three seeds.
        ``REPRO_BENCH_SEEDS=n`` / ``REPRO_BENCH_JOBS=n`` then override
        the seed count / worker processes.
        """
        if os.environ.get("REPRO_BENCH_QUICK"):
            profile = cls(file_size=16 * MB, seeds=(0,))
        elif os.environ.get("REPRO_BENCH_PAPER"):
            profile = cls()
        else:
            profile = cls(file_size=32 * MB, seeds=(0, 1))
        seeds_override = os.environ.get("REPRO_BENCH_SEEDS")
        if seeds_override:
            profile = replace(
                profile, seeds=tuple(range(int(seeds_override)))
            )
        jobs_override = os.environ.get("REPRO_BENCH_JOBS")
        if jobs_override:
            profile = replace(profile, jobs=max(int(jobs_override), 1))
        return profile


def _sweep(
    title: str,
    parameter: str,
    points: Sequence[tuple[str, MicrobenchParams, Optional[float]]],
    profile: Optional[BenchProfile] = None,
) -> GainSeries:
    """Run every point × seed × system through the task runner.

    :func:`~repro.experiments.parallel.run_tasks` returns summaries in
    task order whatever ``profile.jobs`` is, so the series is
    byte-identical sequential or fanned out.
    """
    profile = profile or BenchProfile.from_env()
    systems = (("xftp", None), ("softstage", profile.policy or None))
    tasks = [
        SweepTask(
            system=system,
            params=params.with_(file_size=profile.file_size),
            seed=seed,
            policy=policy,
            run_id=(
                f"{label.replace(' ', '')}/"
                f"{run_id_for(system, seed, policy)}"
            ),
        )
        for label, params, _paper_gain in points
        for seed in profile.seeds
        for system, policy in systems
    ]
    summaries = iter(
        run_tasks(tasks, jobs=profile.jobs, trace_sink=profile.trace_sink)
    )
    series = GainSeries(title=title, parameter=parameter)
    for label, _params, paper_gain in points:
        pairs = [(next(summaries), next(summaries)) for _ in profile.seeds]
        series.add(
            label,
            statistics.mean(xftp.download_time for xftp, _ in pairs),
            statistics.mean(soft.download_time for _, soft in pairs),
            paper_gain,
        )
    return series


# -- the six panels ----------------------------------------------------------

#: Paper-reported gains for the panel endpoints (Fig. 6 text).
PAPER_GAINS = {
    "chunk": {"0.25 MB": 1.59, "10 MB": 1.96},
    "encounter": {"3 s": 1.55, "12 s": 1.77},
    "disconnection": {"8 s": 1.7, "32 s": 1.7, "100 s": 1.7},
    "loss": {"22%": 1.37, "37%": 1.77},
    "bandwidth": {"60 Mbps": 1.77, "15 Mbps": 9.94},
    "latency": {"5 ms": 1.38, "100 ms": 2.3},
}


def sweep_chunk_size(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(a)."""
    base = MicrobenchParams()
    points = [
        (f"{size_mb} MB", base.with_(chunk_size=int(size_mb * MB)),
         PAPER_GAINS["chunk"].get(f"{size_mb} MB"))
        for size_mb in (0.25, 0.625, 1.25, 2, 4, 10)
    ]
    return _sweep("Fig. 6(a): chunk size", "chunk size", points, profile)


def sweep_encounter_time(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(b)."""
    base = MicrobenchParams()
    points = [
        (f"{seconds:g} s", base.with_(encounter_time=float(seconds)),
         PAPER_GAINS["encounter"].get(f"{seconds:g} s"))
        for seconds in (3, 4, 12)
    ]
    return _sweep("Fig. 6(b): encounter time", "encounter", points, profile)


def sweep_disconnection_time(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(c)."""
    base = MicrobenchParams()
    points = [
        (f"{seconds:g} s", base.with_(disconnection_time=float(seconds)),
         PAPER_GAINS["disconnection"].get(f"{seconds:g} s"))
        for seconds in (8, 32, 100)
    ]
    return _sweep(
        "Fig. 6(c): disconnection time", "disconnection", points, profile
    )


def sweep_packet_loss(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(d)."""
    base = MicrobenchParams()
    points = [
        (f"{int(loss * 100)}%", base.with_(packet_loss=loss),
         PAPER_GAINS["loss"].get(f"{int(loss * 100)}%"))
        for loss in (0.22, 0.27, 0.37)
    ]
    return _sweep("Fig. 6(d): packet loss rate", "loss rate", points, profile)


def sweep_internet_bandwidth(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(e)."""
    base = MicrobenchParams()
    points = [
        (f"{bw} Mbps", base.with_(internet_bandwidth=mbps(bw)),
         PAPER_GAINS["bandwidth"].get(f"{bw} Mbps"))
        for bw in (60, 30, 15)
    ]
    return _sweep(
        "Fig. 6(e): Internet bottleneck bandwidth", "bandwidth", points, profile
    )


def sweep_internet_latency(profile: Optional[BenchProfile] = None) -> GainSeries:
    """Fig. 6(f)."""
    base = MicrobenchParams()
    points = [
        (f"{latency} ms", base.with_(internet_latency=ms(latency)),
         PAPER_GAINS["latency"].get(f"{latency} ms"))
        for latency in (5, 10, 20, 50, 100)
    ]
    return _sweep(
        "Fig. 6(f): Internet latency", "latency", points, profile
    )
