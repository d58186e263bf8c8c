"""Tests for the experiment harness: params, report rendering, runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.params import (
    CHUNK_SIZE_LADDER,
    MicrobenchParams,
    PARAMETER_TABLE,
)
from repro.experiments.report import GainSeries, render_table
from repro.experiments.runner import run_download
from repro.experiments.xia_benchmark import PAPER_FIG5, run_protocol
from repro.util import MB, mbps, ms


def test_default_params_match_table3():
    params = MicrobenchParams()
    assert params.chunk_size == 2 * MB
    assert params.encounter_time == 12.0
    assert params.disconnection_time == 8.0
    assert params.packet_loss == 0.27
    assert params.internet_bandwidth == mbps(60)
    assert params.internet_latency == ms(20)
    assert params.file_size == 64 * MB


def test_params_with_is_immutable_copy():
    base = MicrobenchParams()
    varied = base.with_(packet_loss=0.37)
    assert varied.packet_loss == 0.37
    assert base.packet_loss == 0.27


def test_parameter_table_rows():
    names = [row.name for row in PARAMETER_TABLE]
    assert names == [
        "Chunk Size", "Encounter Time", "Disconnection Time",
        "Packet Loss Rate", "Internet Bandwidth", "Internet Latency",
    ]
    assert CHUNK_SIZE_LADDER["360p"] == 250_000


def test_gain_series_render_contains_rows():
    series = GainSeries(title="demo", parameter="x")
    series.add("1", 10.0, 5.0, paper_gain=1.8)
    series.add("2", 20.0, 5.0)
    text = series.render()
    assert "demo" in text
    assert "2.00x" in text
    assert "1.80x" in text
    assert series.rows[1].gain == 4.0


def test_render_table_validates_row_width():
    with pytest.raises(ValueError):
        render_table("t", ("a", "b"), [(1,)])
    text = render_table("t", ("a", "b"), [(1, 2.5)])
    assert "2.50" in text


def test_run_download_rejects_unknown_system():
    with pytest.raises(ConfigurationError):
        run_download("warpdrive")


def test_run_download_smoke_both_systems():
    params = MicrobenchParams(file_size=2 * MB, chunk_size=1 * MB,
                              packet_loss=0.05)
    xftp = run_download("xftp", params=params, seed=0)
    assert xftp.download.completed
    softstage = run_download("softstage", params=params, seed=0)
    assert softstage.download.completed
    assert softstage.system == "softstage"


def test_fig5_single_point_close_to_paper():
    point = run_protocol("wired", "linux-tcp")
    assert point.paper_mbps == PAPER_FIG5[("wired", "linux-tcp")]
    measured = point.throughput_bps / 1e6
    assert measured == pytest.approx(95.0, rel=0.15)


def test_run_id_derives_from_system_and_seed_and_round_trips(tmp_path):
    from repro.obs import read_trace

    params = MicrobenchParams(file_size=2 * MB, chunk_size=1 * MB,
                              packet_loss=0.05)
    trace = tmp_path / "run.jsonl"
    result = run_download("softstage", params=params, seed=7,
                          trace_path=str(trace))
    assert result.run_id == "softstage-seed7"
    stamps = read_trace(str(trace))
    assert stamps, "expected a non-empty trace"
    # Every stamped record in the trace carries the derived run id.
    assert {s.run_id for s in stamps} == {"softstage-seed7"}

    # An explicit run_id overrides the derived one.
    override = run_download("xftp", params=params, seed=7, run_id="custom")
    assert override.run_id == "custom"


# -- attachments: one lifecycle fold, torn down whatever happens -----------------


@pytest.fixture
def built_scenarios(monkeypatch):
    """The scenarios ``run_download`` builds (it does not return them)."""
    from repro.experiments.scenario import TestbedScenario

    built = []
    original = TestbedScenario.__init__

    def capturing_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TestbedScenario, "__init__", capturing_init)
    return built


def test_spans_and_wide_share_one_lifecycle_subscriber(
    built_scenarios, monkeypatch, tmp_path
):
    from repro.experiments.scenario import TestbedScenario
    from repro.obs.stream import TelemetryHub

    during = []
    publish = TestbedScenario.publish_default_content

    def spying_publish(self):
        # Called once every attachment is made, before the run starts.
        bus = self.sim.probe.bus
        during.append((
            [type(h.__self__).__name__ for h in bus._wildcard],
            bus.subscriber_count,
        ))
        return publish(self)

    monkeypatch.setattr(
        TestbedScenario, "publish_default_content", spying_publish
    )
    result = run_download(
        "softstage", params=MicrobenchParams(file_size=4 * MB), seed=0,
        spans=True, wide=str(tmp_path / "wide.jsonl"), sketches=True,
        hub=TelemetryHub(),
    )
    # The fold (the sketch recorder is one of its sinks), plus the hub
    # feed's gauge subscription.
    assert during == [(["WideEventBuilder"], 2)]
    (scenario,) = built_scenarios
    assert scenario.sim.probe.bus.subscriber_count == 0
    # Two views of one fold: spans close in the order records are emitted.
    closed = sorted(
        (s for s in result.spans if s.kind == "chunk" and s.end is not None),
        key=lambda s: s.end,
    )
    cids = [r["cid"] for r in result.wide_records if r["kind"] == "chunk"]
    assert cids and [s.key for s in closed] == cids


def test_a_raising_run_detaches_everything_and_tells_the_hub(
    built_scenarios, monkeypatch
):
    from repro.experiments.scenario import TestbedScenario
    from repro.obs.stream import TelemetryHub

    def failing_publish(self):
        # Any failure after the attachments are made will do (a bad
        # argument is not one: it is rejected before anything is built).
        raise ConfigurationError("origin store cannot hold the content")

    monkeypatch.setattr(
        TestbedScenario, "publish_default_content", failing_publish
    )
    hub = TelemetryHub()
    sub = hub.subscribe(topics={"run"})
    with pytest.raises(ConfigurationError):
        run_download("xftp", spans=True, instrument=True, hub=hub)
    (scenario,) = built_scenarios
    assert scenario.sim.probe.bus.subscriber_count == 0
    markers = [payload for _topic, payload in sub.drain()]
    assert [m["state"] for m in markers] == ["started", "failed"]
    assert markers[-1]["run"] == "xftp-seed0"
    assert markers[-1]["error"] == "ConfigurationError"


@pytest.mark.parametrize("system, kwargs", [
    ("nope", {}),
    ("endtoend", {"deadline": 30.0}),
], ids=["unknown-system", "endtoend-deadline"])
def test_run_download_validates_before_it_builds(
    built_scenarios, tmp_path, system, kwargs
):
    from repro.obs.stream import TelemetryHub

    hub = TelemetryHub()
    sub = hub.subscribe(topics={"run"})
    trace = tmp_path / "trace.jsonl"
    with pytest.raises(ConfigurationError):
        run_download(system, trace_path=str(trace), hub=hub, **kwargs)
    assert built_scenarios == []
    assert not trace.exists()
    assert sub.drain() == []


def test_run_download_keeps_shedding_knobs_nobody_turns():
    import inspect

    parameters = inspect.signature(run_download).parameters
    assert "gauge_period" not in parameters  # never passed; GaugeSampler.period
    assert len(parameters) == 19


def test_an_edge_store_counts_the_chunk_requests_it_cannot_serve(monkeypatch):
    """A request's content step at an edge router that finds none of its
    CIDs is the store's miss (the request falls through to the origin),
    so ``hit_ratio`` tells a staged edge from a cold one.  Edge stores'
    ``(hits, misses)`` summed over a 4 MB pair: Xftp never stages, so
    every request misses; SoftStage serves one chunk from the edge and
    misses once, on the chunk it fetched from the origin."""
    from repro.experiments.scenario import TestbedScenario

    built = []
    original = TestbedScenario.__init__

    def capture(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TestbedScenario, "__init__", capture)
    counts = {}
    for system in ("xftp", "softstage"):
        run_download(system, params=MicrobenchParams(file_size=4 * MB), seed=0)
        stores = [edge.store for edge in built[-1].edges]
        counts[system] = (sum(s.hits for s in stores),
                          sum(s.misses for s in stores))
    assert counts == {"xftp": (0, 2), "softstage": (1, 1)}
