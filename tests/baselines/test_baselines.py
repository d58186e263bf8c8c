"""Tests for the predictive-staging and end-to-end baselines."""

import random

import pytest

from repro.baselines.predictive import MobilityPredictor, PredictiveStagingPolicy
from repro.core.handoff import RssGreedyPolicy
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.mobility.association import AccessPointInfo
from repro.obs.wide import WideEventBuilder
from repro.util import MB
from repro.xia import HID, NID, SID


def make_infos(names):
    return [
        AccessPointInfo(
            name=name, device=None, nid=NID(name), client_port_index=i,
            vnf_sid=SID(name), cache_hid=HID(name),
        )
        for i, name in enumerate(names)
    ]


# ---------------------------------------------------------------------------
# MobilityPredictor
# ---------------------------------------------------------------------------


def test_perfect_predictor_names_round_robin_next():
    infos = make_infos(["A", "B", "C"])
    predictor = MobilityPredictor(infos, accuracy=1.0, rng=random.Random(0))
    assert predictor.predict_next("A").name == "B"
    assert predictor.predict_next("B").name == "C"
    assert predictor.predict_next("C").name == "A"


def test_zero_accuracy_never_names_the_true_next():
    infos = make_infos(["A", "B", "C"])
    predictor = MobilityPredictor(infos, accuracy=0.0, rng=random.Random(0))
    for _ in range(50):
        assert predictor.predict_next("A").name != "B"


def test_predictor_accuracy_statistics():
    infos = make_infos(["A", "B"])
    predictor = MobilityPredictor(infos, accuracy=0.7, rng=random.Random(3))
    hits = sum(
        predictor.predict_next("A").name == "B" for _ in range(2000)
    )
    assert hits / 2000 == pytest.approx(0.7, abs=0.05)


def test_predictor_with_unknown_current():
    infos = make_infos(["A", "B"])
    predictor = MobilityPredictor(infos, accuracy=1.0, rng=random.Random(0))
    assert predictor.predict_next(None).name == "A"


# ---------------------------------------------------------------------------
# Baseline clients end-to-end
# ---------------------------------------------------------------------------


def make_predictive_client(scenario, accuracy):
    """The SoftStage client under the predictive policy at ``accuracy``
    (RSS-greedy handoffs: prediction-driven schemes defer nothing)."""
    return scenario.make_client(
        "softstage",
        handoff_policy=RssGreedyPolicy(),
        staging_policy=PredictiveStagingPolicy.for_scenario(scenario, accuracy),
    )


def test_predictive_client_downloads_with_good_predictions():
    params = MicrobenchParams(file_size=8 * MB, chunk_size=1 * MB)
    scenario = TestbedScenario(params=params, seed=1)
    content = scenario.publish_default_content()
    client = make_predictive_client(scenario, accuracy=1.0)
    records = []
    WideEventBuilder(sinks=[records.append]).attach(scenario.sim.probe.bus)
    result = scenario.sim.run(
        until=scenario.sim.process(client.download(content))
    )
    assert result.completed
    assert result.staging_signals >= 1
    # With perfect prediction, later chunks come from edges.
    assert result.chunks_from_edge > 0
    # On the shared client a predictive run is as observable as any
    # other: one chunk wide record per delivered chunk.
    chunk_records = [r for r in records if r["kind"] == "chunk"]
    assert [r["cid"] for r in chunk_records] == [
        chunk.cid.short for chunk in content.chunks
    ]


def test_predictive_worse_with_bad_predictions():
    params = MicrobenchParams(file_size=12 * MB)
    times = {}
    for accuracy in (1.0, 0.0):
        scenario = TestbedScenario(params=params, seed=2, num_edges=3)
        content = scenario.publish_default_content()
        client = make_predictive_client(scenario, accuracy=accuracy)
        result = scenario.sim.run(
            until=scenario.sim.process(client.download(content))
        )
        times[accuracy] = result.duration
    assert times[0.0] >= times[1.0] * 0.95  # never better by margin


def test_endtoend_client_single_stream():
    params = MicrobenchParams(file_size=6 * MB, chunk_size=6 * MB)
    scenario = TestbedScenario(params=params, seed=1)
    content = scenario.publish_default_content()
    client = scenario.make_client("endtoend")
    result = scenario.sim.run(
        until=scenario.sim.process(client.download(content))
    )
    assert result.completed
    assert result.chunks_total == 1
    assert result.bytes_received == 6 * MB


def test_one_client_per_scenario_enforced():
    from repro.errors import ConfigurationError

    scenario = TestbedScenario(params=MicrobenchParams(file_size=2 * MB), seed=0)
    scenario.make_client("xftp")
    with pytest.raises(ConfigurationError):
        scenario.make_client("softstage")
