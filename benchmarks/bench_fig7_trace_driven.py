"""Fig. 7: trace-driven mobile experiments.

Two synthesized Beijing wardriving traces (Fig. 7(a) patterns); the
paper's Fig. 7(b): SoftStage completes ~2x the content objects of Xftp
within the same drive.
"""

from benchmarks.conftest import run_once, strict_shapes
from repro.experiments.report import render_table
from repro.experiments.tracedriven import PAPER_OBJECT_RATIO, run_all


def test_fig7_trace_driven(benchmark, profile):
    # The quick smoke profile drives half the trace.
    duration = 300.0 if strict_shapes(profile) else 150.0

    results = run_once(
        benchmark,
        lambda: run_all(
            seeds=profile.seeds, duration=duration, jobs=profile.jobs
        ),
    )
    print()
    print(render_table(
        "Fig. 7(b): content objects downloaded within the trace",
        ("trace", "coverage", "Xftp chunks", "SoftStage chunks",
         "ratio", "paper"),
        [
            (r.trace_name, f"{r.coverage_fraction:.0%}", r.xftp_chunks,
             r.softstage_chunks, r.object_ratio, PAPER_OBJECT_RATIO)
            for r in results
        ],
    ))

    for result in results:
        # SoftStage downloads substantially more on both traces
        # (paper: "almost twice").
        assert result.object_ratio > 1.4, (
            result.trace_name, result.object_ratio,
        )
