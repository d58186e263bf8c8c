"""Ablation: reactive (SoftStage) vs predictive (EdgeBuffer-style) staging.

The paper's central §III-B argument: predictive staging matches
reactive only while the mobility predictor is right; as accuracy
degrades (AP churn, load balancing, route changes), mis-staged chunks
cost cross-network fetches while SoftStage, which never predicts,
stays put.  We sweep predictor accuracy and compare download times.

A reproduction finding worth noting: on an XIA testbed the *penalty*
for a wrong prediction is softened by exactly the mechanism SoftStage
itself relies on — chunks staged into the wrong edge network remain
fetchable cross-network via the core.  So predictive staging here
degrades gracefully rather than catastrophically; the assertions below
only require reactive to stay within a modest factor of a predictor at
every accuracy, with zero prediction machinery.
"""

from benchmarks.conftest import run_once
from repro.baselines.predictive import PredictiveStagingPolicy
from repro.core.handoff import RssGreedyPolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.report import render_table
from repro.experiments.scenario import TestbedScenario
from repro.obs.wide import WideEventBuilder
from repro.util import MB


def run_predictive(accuracy: float, params, seed: int, num_edges: int = 3):
    """One SoftStage download under the predictive policy at
    ``accuracy``; returns ``(result, wrong-network edge fetches)``."""
    scenario = TestbedScenario(params=params, seed=seed, num_edges=num_edges)
    content = scenario.publish_default_content()
    client = scenario.make_client(
        "softstage",
        handoff_policy=RssGreedyPolicy(),
        staging_policy=PredictiveStagingPolicy.for_scenario(scenario, accuracy),
    )
    records: list[dict] = []
    WideEventBuilder(sinks=[records.append]).attach(scenario.sim.probe.bus)
    process = scenario.sim.process(client.download(content))
    result = scenario.sim.run(until=process)
    # A mis-staged chunk: served by an edge cache, but not the one of
    # the network the client was in when it arrived.
    vnf_of = {edge.name: edge.router.name for edge in scenario.edges}
    wrong_network = sum(
        record["kind"] == "chunk"
        and record["source"] == "edge"
        and record["vnf"] != vnf_of.get(record["network"])
        for record in records
    )
    return result, wrong_network


def run_reactive(params, seed: int, num_edges: int = 3):
    scenario = TestbedScenario(params=params, seed=seed, num_edges=num_edges)
    content = scenario.publish_default_content()
    client = scenario.make_client("softstage")
    process = scenario.sim.process(client.download(content))
    return scenario.sim.run(until=process)


def test_reactive_vs_predictive(benchmark, profile):
    params = MicrobenchParams(file_size=min(profile.file_size, 32 * MB))
    seed = 0

    def harness():
        rows = []
        reactive = run_reactive(params, seed)
        rows.append(("reactive (SoftStage)", reactive.duration,
                     reactive.chunks_from_edge, "-"))
        for accuracy in (1.0, 0.7, 0.4):
            result, wrong_network = run_predictive(accuracy, params, seed)
            rows.append((
                f"predictive acc={accuracy:.0%}", result.duration,
                result.chunks_from_edge, wrong_network,
            ))
        return rows

    rows = run_once(benchmark, harness)
    print()
    print(render_table(
        "Reactive vs predictive staging (download time)",
        ("policy", "time (s)", "edge hits", "wrong-net fetches"),
        rows,
    ))

    times = {row[0]: row[1] for row in rows}
    reactive_time = times["reactive (SoftStage)"]
    # Reactive stays within a modest factor of a *perfect* predictor
    # and of every degraded one — with no prediction machinery at all.
    for accuracy in ("100%", "70%", "40%"):
        assert reactive_time < times[f"predictive acc={accuracy}"] * 1.5, (
            accuracy, reactive_time, times,
        )
