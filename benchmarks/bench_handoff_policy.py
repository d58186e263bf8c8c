"""§IV-D: default (RSS-greedy) vs content-aware handoff.

Paper: content-aware handoff cuts download time by 21.7% in the
overlapping-coverage scenario (12 s encounters, 3 s overlap).
"""

from benchmarks.conftest import run_once
from repro.experiments.handoff import PAPER_SAVING, run_comparison
from repro.experiments.report import render_table
from repro.util import MB


def test_handoff_policy(benchmark, profile):
    comparison = run_once(
        benchmark,
        lambda: run_comparison(
            # Needs enough chunks that several handoffs occur.
            file_size=max(profile.file_size, 48 * MB),
            seeds=profile.seeds,
            jobs=profile.jobs,
        ),
    )
    print()
    print(render_table(
        "§IV-D: handoff policy (download time, seconds)",
        ("policy", "time (s)", "handoffs"),
        [
            ("default (RSS-greedy)", comparison.default_time,
             comparison.default_handoffs),
            ("content-aware", comparison.content_aware_time,
             comparison.content_aware_handoffs),
        ],
    ))
    print(f"measured saving: {comparison.saving:.1%}   paper: {PAPER_SAVING:.1%}")

    # Content-aware handoff is strictly better, by a material margin.
    assert comparison.content_aware_time < comparison.default_time
    assert comparison.saving > 0.05
