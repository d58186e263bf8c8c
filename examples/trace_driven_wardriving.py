#!/usr/bin/env python3
"""Trace-driven experiment on synthesized wardriving traces (Fig. 7).

Synthesizes the two Beijing-wardriving connectivity patterns, saves
them to disk in the trace format, reloads them, and measures how many
content objects Xftp and SoftStage complete within each drive.

Run:  python examples/trace_driven_wardriving.py [--duration 180]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro.experiments.tracedriven import run_traces, synthesize_traces
from repro.mobility.traces import ConnectivityTrace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=180.0,
                        help="trace length in seconds")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    traces = synthesize_traces(seed=args.seed, duration=args.duration)
    trace_dir = Path(tempfile.mkdtemp(prefix="softstage-traces-"))

    for name, trace in traces.items():
        path = trace_dir / f"{name}.trace"
        trace.save(path)
        reloaded = ConnectivityTrace.load(path)
        encounters = reloaded.encounter_durations()
        print(f"{name}: {reloaded.coverage_fraction:.0%} coverage, "
              f"{len(encounters)} encounters "
              f"(mean {sum(encounters) / len(encounters):.1f}s) "
              f"-> saved to {path}")

        (result,) = run_traces({name: reloaded}, seeds=(args.seed,))
        print(f"  Xftp      : {result.xftp_chunks:5.0f} chunks "
              f"({result.xftp_bytes / 1e6:6.1f} MB)")
        print(f"  SoftStage : {result.softstage_chunks:5.0f} chunks "
              f"({result.softstage_bytes / 1e6:6.1f} MB)")
        print(f"  ratio     : {result.object_ratio:.2f}x "
              f"(paper: ~2x)\n")


if __name__ == "__main__":
    main()
