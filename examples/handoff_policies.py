#!/usr/bin/env python3
"""Chunk-aware vs RSS-greedy handoff in overlapping coverage (§IV-D).

Two networks whose coverage overlaps by 3 seconds: the default policy
switches mid-chunk the moment the new AP sounds louder (forcing an
active session migration); the content-aware policy finishes the
current chunk first and pre-stages into the target network through the
current one.

Run:  python examples/handoff_policies.py [--file-mb 32]
"""

from __future__ import annotations

import argparse

from repro.experiments.handoff import PAPER_SAVING, run_comparison
from repro.util import MB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file-mb", type=float, default=32.0)
    parser.add_argument("--seeds", type=int, default=1)
    args = parser.parse_args()

    print(f"Downloading {args.file_mb:g} MB across overlapping networks "
          f"(12s encounters, 3s overlap)...")
    comparison = run_comparison(
        file_size=int(args.file_mb * MB),
        seeds=tuple(range(args.seeds)),
    )
    print(f"  default (RSS-greedy) : {comparison.default_time:6.1f} s "
          f"({comparison.default_handoffs:.0f} handoffs)")
    print(f"  content-aware        : {comparison.content_aware_time:6.1f} s "
          f"({comparison.content_aware_handoffs:.0f} handoffs)")
    print(f"\n  download-time saving: {comparison.saving:.1%} "
          f"(paper: {PAPER_SAVING:.1%})")


if __name__ == "__main__":
    main()
