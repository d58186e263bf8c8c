#!/usr/bin/env python3
"""Extending SoftStage: plugging in a custom staging policy.

Staging decisions live behind the :class:`repro.core.policy.
StagingPolicy` protocol: a policy reads a :class:`StagingObservation`
(a pure snapshot of the staging pipeline, connectivity and the Table I
latency estimators) and returns :class:`StagingAction` requests, which
the Staging Coordinator executes against the tracker and the edge
VNFs.  Implementing a competitor is a small class — no forking of the
coordinator, profile, tracker or handoff machinery.

This example compares the paper's Eq. 1 reactive policy against two
deliberately naive ones:

- ``FixedDepthPolicy``: always keep exactly N chunks signalled ahead
  (what a first implementation would do);
- ``WholeFilePolicy``: signal everything immediately (the "blindly
  excessive" extreme the paper warns about — fine for one client,
  wasteful at scale).

Run:  python examples/custom_staging_policy.py [--file-mb 16]
"""

from __future__ import annotations

import argparse

from repro.core.policy import StagingAction, StagingObservation, StagingPolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.util import MB


class FixedDepthPolicy(StagingPolicy):
    """Keep a constant number of chunks signalled ahead."""

    name = "fixed-depth"

    def __init__(self, depth: int = 4) -> None:
        self.depth = depth

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        actions = []
        if obs.stale_cids:
            actions.append(StagingAction.resignal(obs.stale_cids))
        deficit = self.depth - obs.outstanding
        if deficit > 0:
            actions.append(StagingAction.stage(deficit, label="fixed-depth"))
        return actions

    def prestage_count(self, obs: StagingObservation) -> int:
        return self.depth


class WholeFilePolicy(StagingPolicy):
    """Signal the entire remaining file at once."""

    name = "whole-file"

    def decide(self, obs: StagingObservation) -> list[StagingAction]:
        actions = []
        if obs.stale_cids:
            actions.append(StagingAction.resignal(obs.stale_cids))
        deficit = obs.remaining_chunks - obs.outstanding
        if deficit > 0:
            actions.append(StagingAction.stage(deficit, label="whole-file"))
        return actions


def run_with_policy(policy, file_mb: float, chunk_mb: float, seed: int):
    params = MicrobenchParams(file_size=int(file_mb * MB),
                              chunk_size=int(chunk_mb * MB))
    scenario = TestbedScenario(params=params, seed=seed)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage", staging_policy=policy)
    manager = client.manager
    process = scenario.sim.process(client.download(content))
    result = scenario.sim.run(until=process)
    signals = manager.tracker.signals_sent
    staged = sum(edge.vnf.chunks_staged for edge in scenario.edges)
    return result.duration, signals, staged, result.chunks_from_edge


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file-mb", type=float, default=24.0)
    parser.add_argument("--chunk-mb", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    policies = [
        ("reactive Eq.1 (paper)", None),  # the coordinator's default
        ("fixed depth 4", FixedDepthPolicy(depth=4)),
        ("whole file", WholeFilePolicy()),
    ]
    print(f"{'policy':>22} | {'time (s)':>8} | {'signals':>7} | "
          f"{'VNF fetches':>11} | {'edge hits':>9}")
    for label, policy in policies:
        duration, signals, staged, edge = run_with_policy(
            policy, args.file_mb, args.chunk_mb, args.seed
        )
        print(f"{label:>22} | {duration:8.1f} | {signals:7d} | "
              f"{staged:11d} | {edge:9d}")
    print("\nNote how 'whole file' buys little time but multiplies the "
          "network/cache resources consumed — the economics behind the "
          "paper's Just-in-Time policy.")


if __name__ == "__main__":
    main()
