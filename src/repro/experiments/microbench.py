"""Fig. 6 micro-benchmarks: one sweep driver for every panel.

A panel varies one Table III parameter (its
:class:`~repro.experiments.params.ParameterRow`), keeps the rest at
their defaults, downloads the same file with Xftp and with SoftStage,
and reports mean download times over the configured seeds plus the
gain the paper measured for that point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import IO, Optional

from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    Competitor,
    GridPoint,
    cell_mean,
    run_grid,
)
from repro.experiments.params import PANELS, MicrobenchParams
from repro.experiments.report import GainSeries
from repro.util import MB


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
        the seed count / worker processes (fewer than one job means
        one, as ``--jobs 0`` does; fewer than one seed is an error).
        """
        if _env_flag("REPRO_BENCH_QUICK"):
            profile = cls(file_size=16 * MB, seeds=(0,))
        elif _env_flag("REPRO_BENCH_PAPER"):
            profile = cls()
        else:
            profile = cls(file_size=32 * MB, seeds=(0, 1))
        seeds = _env_int("REPRO_BENCH_SEEDS")
        if seeds is not None:
            if seeds < 1:
                raise ConfigurationError(
                    f"REPRO_BENCH_SEEDS must be >= 1, got {seeds}"
                )
            profile = replace(profile, seeds=tuple(range(seeds)))
        jobs = _env_int("REPRO_BENCH_JOBS")
        if jobs is not None:
            profile = replace(profile, jobs=max(jobs, 1))
        return profile


def _env_flag(name: str) -> bool:
    """Unset, empty, ``0``, ``false`` and ``no`` mean off."""
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def sweep(panel: str, profile: Optional[BenchProfile] = None) -> GainSeries:
    """One Fig. 6 panel: Xftp vs SoftStage over the panel's Table III row.

    :func:`~repro.experiments.parallel.run_grid` returns the same
    cells whatever ``profile.jobs`` is, so the series is
    byte-identical sequential or fanned out.
    """
    profile = profile or BenchProfile.from_env()
    row = PANELS[panel]
    points = list(row.points(MicrobenchParams(file_size=profile.file_size)))
    cells = run_grid(
        [GridPoint(label, params) for label, params, _paper_gain in points],
        (
            Competitor("xftp", "xftp"),
            Competitor("softstage", "softstage", profile.policy or None),
        ),
        profile.seeds,
        jobs=profile.jobs,
        trace_sink=profile.trace_sink,
    )
    series = GainSeries(
        title=f"Fig. 6({panel}): {row.title}", parameter=row.caption
    )
    for label, _params, paper_gain in points:
        series.add(
            label,
            cell_mean(cells[label, "xftp"]),
            cell_mean(cells[label, "softstage"]),
            paper_gain,
        )
    return series
