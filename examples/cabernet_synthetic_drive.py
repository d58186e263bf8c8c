#!/usr/bin/env python3
"""A synthetic Cabernet drive: connectivity sampled from the published
urban-vehicular statistics (median 4 s / mean 10 s encounters, median
32 s / mean 126 s gaps — paper §II-A), then Xftp vs SoftStage on it.

This is the harshest regime in the paper's motivation: sparse, short,
heavy-tailed encounters, where staging through gaps matters most.

Run:  python examples/cabernet_synthetic_drive.py [--duration 600]
"""

from __future__ import annotations

import argparse
import random

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.mobility.cabernet import CabernetTraceGenerator
from repro.metrics import summarize
from repro.util import MB, ms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=600.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    # Clamp the gap tail: the full Cabernet distribution includes long
    # highway stretches with no APs at all (mean gap 126 s); for a demo
    # of *urban* blocks we cap gaps at 45 s, as the paper's own
    # densification argument does.
    generator = CabernetTraceGenerator(random.Random(args.seed), max_gap=45.0)
    trace = generator.generate(args.duration, start_connected=True)
    encounters = summarize(trace.encounter_durations())
    gaps = summarize(trace.gap_durations())
    print(f"Synthetic Cabernet drive: {trace.coverage_fraction:.0%} coverage")
    print(f"  encounters: n={encounters.count} median={encounters.p50:.1f}s "
          f"mean={encounters.mean:.1f}s   (paper: median 4s, mean 10s)")
    print(f"  gaps      : n={gaps.count} median={gaps.p50:.1f}s "
          f"mean={gaps.mean:.1f}s   (paper: median 32s, mean 126s)")

    params = MicrobenchParams(file_size=512 * MB, internet_latency=ms(50))
    coverage = trace.to_coverage(["ap-A", "ap-B"])
    xftp = run_download("xftp", params=params, seed=args.seed,
                        coverage=coverage, deadline=trace.duration)
    coverage = trace.to_coverage(["ap-A", "ap-B"])
    softstage = run_download("softstage", params=params, seed=args.seed,
                             coverage=coverage, deadline=trace.duration)

    xc = xftp.download.chunks_completed
    sc = softstage.download.chunks_completed
    print(f"\n  Xftp      : {xc} chunks ({xftp.download.bytes_received / 1e6:.0f} MB)")
    print(f"  SoftStage : {sc} chunks "
          f"({softstage.download.bytes_received / 1e6:.0f} MB, "
          f"{softstage.download.chunks_from_edge} from edge)")
    if xc:
        print(f"  ratio     : {sc / xc:.2f}x")


if __name__ == "__main__":
    main()
