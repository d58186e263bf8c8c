"""§IV-D: handoff policy comparison.

Overlapping-coverage scenario (12 s encounters, 3 s overlap between
consecutive networks): SoftStage with the default RSS-greedy policy
versus SoftStage with the content-aware policy.  The paper measures a
21.7% download-time reduction for content-aware handoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.handoff import ChunkAwarePolicy, RssGreedyPolicy
from repro.experiments.parallel import (
    Competitor,
    GridPoint,
    cell_mean,
    run_grid,
)
from repro.experiments.params import MicrobenchParams
from repro.mobility.coverage import overlapping_coverage
from repro.util import MB

#: The paper's reported saving.
PAPER_SAVING = 0.217
#: The §IV-D pattern: encounters, and how long consecutive ones overlap.
ENCOUNTER_TIME = 12.0
OVERLAP_TIME = 3.0


@dataclass
class HandoffComparison:
    default_time: float
    content_aware_time: float
    default_handoffs: float
    content_aware_handoffs: float

    @property
    def saving(self) -> float:
        """Fractional download-time reduction of content-aware handoff."""
        if self.default_time <= 0:
            return 0.0
        return 1.0 - self.content_aware_time / self.default_time


def run_comparison(
    file_size: int = 64 * MB,
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
) -> HandoffComparison:
    """Run both policies on the same overlapping-coverage pattern.

    One point × two competitors
    (:func:`~repro.experiments.parallel.run_grid`); ``jobs`` fans the
    seed × policy runs over worker processes (same result).
    """
    params = MicrobenchParams(
        file_size=file_size, encounter_time=ENCOUNTER_TIME
    )
    coverage = overlapping_coverage(
        ["ap-A", "ap-B"],
        encounter_time=ENCOUNTER_TIME,
        overlap_time=OVERLAP_TIME,
        total_time=24 * 3600.0,
    )
    cells = run_grid(
        [GridPoint("overlap", params, coverage=coverage)],
        (
            Competitor("default", "softstage",
                       handoff_policy=RssGreedyPolicy()),
            Competitor("content-aware", "softstage",
                       handoff_policy=ChunkAwarePolicy()),
        ),
        seeds,
        jobs=jobs,
    )
    default = cells["overlap", "default"]
    aware = cells["overlap", "content-aware"]
    return HandoffComparison(
        default_time=cell_mean(default),
        content_aware_time=cell_mean(aware),
        default_handoffs=cell_mean(default, "handoffs"),
        content_aware_handoffs=cell_mean(aware, "handoffs"),
    )
