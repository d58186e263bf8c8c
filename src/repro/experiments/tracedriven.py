"""Fig. 7: trace-driven mobile experiments.

Two synthesized Beijing-wardriving connectivity traces (Fig. 7(a)'s
high-coverage patterns); the client downloads a stream of content
objects for the duration of the trace, and we count how much content
each system completes — the paper's result: "with SoftStage, the
mobile client can download almost twice the content objects in the
same networking environment" (Fig. 7(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.experiments.parallel import (
    Competitor,
    GridPoint,
    cell_mean,
    run_grid,
)
from repro.experiments.params import MicrobenchParams
from repro.mobility.traces import ConnectivityTrace
from repro.mobility.wardriving import WardrivingSynthesizer
from repro.sim import RandomStreams
from repro.util import MB, ms

#: Paper's Fig. 7(b): SoftStage downloads ~2x the objects.
PAPER_OBJECT_RATIO = 2.0


@dataclass
class TraceResult:
    trace_name: str
    coverage_fraction: float
    xftp_chunks: float
    softstage_chunks: float
    xftp_bytes: float
    softstage_bytes: float

    @property
    def object_ratio(self) -> float:
        if self.xftp_chunks == 0:
            return float("inf")
        return self.softstage_chunks / self.xftp_chunks


def synthesize_traces(seed: int = 7, duration: float = 300.0):
    """The two Fig. 7(a) traces."""
    streams = RandomStreams(seed)
    synthesizer = WardrivingSynthesizer(streams.stream("wardriving"))
    return {
        "trace-1": synthesizer.trace_one(duration),
        "trace-2": synthesizer.trace_two(duration),
    }


def run_traces(
    traces: Mapping[str, ConnectivityTrace],
    seeds: Sequence[int] = (0, 1, 2),
    jobs: int = 1,
) -> list[TraceResult]:
    """Run both systems against each connectivity trace.

    The download target is sized so that neither system can finish
    within the trace — we measure completed objects at the deadline.

    Unlike the controlled micro-benchmarks, the paper's trace runs hit
    real content servers across a metropolitan operator network, so the
    Internet RTT here is a realistic 50 ms rather than the testbed's
    idealized 20 ms default.

    The traces are the points of one grid
    (:func:`~repro.experiments.parallel.run_grid`), so ``jobs`` fans
    every trace × seed × system run over one worker pool (same result).
    """
    file_size = 512 * MB  # effectively unbounded within the trace
    params = MicrobenchParams(file_size=file_size, internet_latency=ms(50))
    cells = run_grid(
        [
            GridPoint(
                name, params,
                coverage=trace.to_coverage(["ap-A", "ap-B"]),
                deadline=trace.duration,
            )
            for name, trace in traces.items()
        ],
        (Competitor("xftp", "xftp"), Competitor("softstage", "softstage")),
        seeds,
        jobs=jobs,
    )
    return [
        TraceResult(
            trace_name=name,
            coverage_fraction=trace.coverage_fraction,
            xftp_chunks=cell_mean(cells[name, "xftp"], "chunks_completed"),
            softstage_chunks=cell_mean(
                cells[name, "softstage"], "chunks_completed"
            ),
            xftp_bytes=cell_mean(cells[name, "xftp"], "bytes_received"),
            softstage_bytes=cell_mean(
                cells[name, "softstage"], "bytes_received"
            ),
        )
        for name, trace in traces.items()
    ]


def run_all(
    seeds: Sequence[int] = (0, 1, 2),
    duration: float = 300.0,
    jobs: int = 1,
) -> list[TraceResult]:
    return run_traces(
        synthesize_traces(duration=duration), seeds=seeds, jobs=jobs
    )
