#!/usr/bin/env python3
"""Vehicular video streaming over SoftStage (§V extension).

A VoD player with buffer-based rate adaptation drives through
intermittent coverage.  We play the same video twice — once fetching
every segment from the origin (baseline) and once through SoftStage —
and compare startup delay, rebuffering and the quality rungs achieved.

Run:  python examples/vehicular_video_streaming.py [--duration 60]
"""

from __future__ import annotations

import argparse

from repro.apps.video import BufferBasedPlayer, VideoLadder, publish_video
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario


def play_with_softstage(duration: float, seed: int):
    scenario = TestbedScenario(params=MicrobenchParams(), seed=seed)
    ladder = VideoLadder()
    renditions = publish_video(
        scenario.server.publisher, "roadmovie", duration, ladder
    )
    client = scenario.make_client("softstage")
    for rung in range(ladder.rungs):
        client.manager.register_content(renditions[rung])
    client.manager.start()
    player = BufferBasedPlayer(
        scenario.sim, renditions,
        client.manager.chunk_manager.xfetch_chunk_star, ladder=ladder,
    )
    process = scenario.sim.process(player.play())
    return scenario.sim.run(until=process)


def play_with_origin_fetch(duration: float, seed: int):
    scenario = TestbedScenario(params=MicrobenchParams(), seed=seed)
    ladder = VideoLadder()
    renditions = publish_video(
        scenario.server.publisher, "roadmovie", duration, ladder
    )
    client = scenario.make_client("xftp")

    address_of = {}
    for rendition in renditions.values():
        for chunk, address in zip(rendition.chunks, rendition.addresses):
            address_of[chunk.cid] = address

    def fetch(cid):
        return client.fetcher.fetch(address_of[cid])

    player = BufferBasedPlayer(scenario.sim, renditions, fetch, ladder=ladder)
    process = scenario.sim.process(player.play())
    return scenario.sim.run(until=process)


def describe(label: str, stats) -> None:
    print(f"  {label:10s}: {stats.segments_played} segments, "
          f"startup {stats.startup_delay:5.2f}s, "
          f"{stats.rebuffer_events} rebuffer events "
          f"({stats.rebuffer_seconds:5.1f}s), "
          f"mean quality rung {stats.mean_rung:.2f}, "
          f"{stats.quality_switches} switches")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=60.0,
                        help="video length in seconds")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"Streaming a {args.duration:g}s video through vehicular coverage...")
    baseline = play_with_origin_fetch(args.duration, args.seed)
    describe("origin", baseline)
    softstage = play_with_softstage(args.duration, args.seed)
    describe("SoftStage", softstage)

    fewer = baseline.rebuffer_seconds - softstage.rebuffer_seconds
    print(f"\n  SoftStage removes {fewer:.1f}s of rebuffering on this drive.")


if __name__ == "__main__":
    main()
