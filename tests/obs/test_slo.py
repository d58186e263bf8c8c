"""SLO engine: spec grammar, offline judging, live burn rates, alerts."""

import json
import math

import pytest

from repro.obs.registry import RunRecord
from repro.obs.sketch import QuantileSketch, serialize_sketches
from repro.obs.slo import (
    DEFAULT_SLOS,
    DEFAULT_WINDOW_S,
    MAX_WINDOW_SAMPLES,
    SLO,
    AlertLog,
    AlertRecord,
    LiveSLOEvaluator,
    check_payload,
    evaluate_record,
    evaluate_slos,
    parse_slo,
    render_check,
    violations,
)
from repro.obs.stream import TelemetryHub


# -- spec grammar -------------------------------------------------------------


def test_parse_bare_metric_floor():
    slo = parse_slo("gain >= 1.2")
    assert (slo.metric, slo.agg, slo.op, slo.threshold) == \
        ("gain", "value", ">=", 1.2)
    assert slo.window_s == DEFAULT_WINDOW_S


def test_parse_percentile_ceiling_with_window():
    slo = parse_slo("p95(stage_latency) <= 2.0 @ 60")
    assert (slo.metric, slo.agg, slo.op) == ("stage_latency", "p95", "<=")
    assert slo.window_s == 60.0


def test_spec_round_trips_through_parse():
    for spec in (
        "gain >= 1.2",
        "p95(stage_latency) <= 2",
        "mean(fetch_latency) <= 10 @ 60",
        "ready_before_fetch_ratio >= 0.6",
    ):
        assert parse_slo(parse_slo(spec).spec()) == parse_slo(spec)


@pytest.mark.parametrize("spec,canonical", [
    ("gain >= 1.2", "gain >= 1.2"),
    ("p95(stage_latency) <= 2.0", "p95(stage_latency) <= 2"),
    ("gain >= 1.2345678", "gain >= 1.2345678"),
    ("gain >= 1234567", "gain >= 1234567.0"),
    ("gain >= 1e-9", "gain >= 1e-09"),
    ("mean(g) <= 0.1 @ 30.0000001", "mean(g) <= 0.1 @ 30.0000001"),
    ("mean(g) <= 3 @ 12.5", "mean(g) <= 3 @ 12.5"),
])
def test_spec_keeps_every_digit_it_needs(spec, canonical):
    slo = parse_slo(spec)
    assert slo.spec() == canonical
    assert parse_slo(slo.spec()) == slo


def test_parse_rejects_garbage():
    for bad in ("gain", "gain == 1", "p42(x) <= 1", "gain >= fast"):
        with pytest.raises(ValueError):
            parse_slo(bad)
    with pytest.raises(ValueError):
        SLO(metric="x", agg="value", op="!=", threshold=1.0)


def test_ok_direction():
    floor = parse_slo("gain >= 1.2")
    assert floor.ok(1.2) and not floor.ok(1.1)
    ceil = parse_slo("p95(x) <= 2.0")
    assert ceil.ok(2.0) and not ceil.ok(2.5)


# -- offline evaluation -------------------------------------------------------


def _sketches_with(name, values):
    sketch = QuantileSketch(compression=256)
    for value in values:
        sketch.add(value)
    return {name: sketch}


def test_evaluate_value_slo_from_metrics():
    results = evaluate_slos(
        [parse_slo("gain >= 1.2")], metrics={"gain": 1.5},
    )
    assert results[0].ok is True and results[0].value == 1.5
    assert results[0].source == "metrics"


def test_evaluate_percentile_slo_from_sketch():
    sketches = _sketches_with(
        "wide.stage_latency", [0.1] * 95 + [9.0] * 5,
    )
    ok = evaluate_slos([parse_slo("p95(stage_latency) <= 2.0")],
                       sketches=sketches)[0]
    # p95 lands on the last 0.1 (rank 95/100) — within budget.
    assert ok.ok is True
    bad = evaluate_slos([parse_slo("p90(stage_latency) <= 0.05")],
                        sketches=sketches)[0]
    assert bad.ok is False


def test_evaluate_ready_before_fetch_ratio():
    indicator = QuantileSketch()
    for value in [1.0, 1.0, 1.0, 0.0]:
        indicator.add(value)
    results = evaluate_slos(
        [parse_slo("ready_before_fetch_ratio >= 0.6")],
        sketches={"wide.ready_before_fetch": indicator},
    )
    assert results[0].value == pytest.approx(0.75)
    assert results[0].ok is True


def test_ready_before_fetch_ratio_from_an_old_stat_payload():
    """Registry lines written before there was one sketch kind hold the
    indicator as a ``stat`` payload: the ratio keeps its value."""
    record = RunRecord(
        rec_id="r1", run_id="softstage-seed0", kind="demo",
        recorded_at="", git_sha="", machine="", metrics={},
        sketches={"wide.ready_before_fetch": {
            "kind": "stat", "count": 4, "sum": 3.0, "min": 0.0, "max": 1.0}},
    )
    ratio, median = evaluate_record(
        [parse_slo("ready_before_fetch_ratio >= 0.6"),
         parse_slo("p50(ready_before_fetch) >= 0.5")], record)
    assert (ratio.value, ratio.status) == (0.75, "pass")
    assert median.status == "no-data"  # no centroids to rank


def test_missing_metric_is_no_data_not_failure():
    results = evaluate_slos([parse_slo("gain >= 1.2")], metrics={})
    assert results[0].ok is None
    assert results[0].status == "no-data"
    assert violations(results) == []


def test_evaluate_from_wide_records_folds_on_the_fly():
    records = [
        {"kind": "chunk", "fetch_latency": f, "ready_wait_s": 0.5}
        for f in (1.0, 2.0, 3.0, 50.0)
    ]
    results = evaluate_slos(
        [parse_slo("p95(fetch_latency) <= 30.0"),
         parse_slo("ready_before_fetch_ratio >= 0.99")],
        wide_records=records,
    )
    assert results[0].ok is False          # p95 hits the 50 s outlier
    assert results[1].ok is True           # all four staged in time


def test_evaluate_record_reads_serialized_sketches():
    sketches = _sketches_with("wide.fetch_latency", [1.0, 2.0, 3.0])
    record = RunRecord(
        rec_id="r1", run_id="softstage-seed0", kind="demo",
        recorded_at="", git_sha="", machine="",
        metrics={"gain": 1.5},
        sketches=serialize_sketches(sketches),
    )
    results = evaluate_record(
        [parse_slo("gain >= 1.2"), parse_slo("p95(fetch_latency) <= 30")],
        record,
    )
    assert [r.ok for r in results] == [True, True]


def _recorded_gauge(values, gauge="staging.lead_bytes"):
    """The registry gauge columns of a run whose flight recorder sampled
    ``gauge`` (beside ``client.connected``) once a second with
    ``values``, as the collector recorded them
    (:func:`repro.obs.registry.record_from_result`'s shape)."""
    from repro.metrics.collector import MetricsCollector
    from repro.obs.bus import EventBus, Stamped
    from repro.obs.events import GaugeSample

    bus = EventBus()
    collector = MetricsCollector().attach(bus)
    for i, value in enumerate(values):
        bus.publish(Stamped(
            time=float(i), run_id="r",
            event=GaugeSample(gauges=("client.connected", gauge),
                              values=(1.0, value)),
        ))
    collector.detach()
    series = collector.series(f"gauge.r.{gauge}")
    return {gauge: {"t": list(series.times), "v": list(series.values)}}


def _gauge_record(gauges, **over):
    return RunRecord(
        rec_id="r1", run_id="softstage-seed0", kind="demo",
        recorded_at="", git_sha="", machine="", metrics={},
        gauges=json.loads(json.dumps(gauges)), **over,
    )


#: spec -> (status, value) over a gauge sampled 0, 1, …, 99: every
#: aggregation is exact nearest-rank over the recorded timeline.
GAUGE_VERDICTS = {
    "p95(staging.lead_bytes) <= 50": ("FAIL", 94.0),
    "p50(staging.lead_bytes) <= 50": ("pass", 49.0),
    "mean(staging.lead_bytes) <= 50": ("pass", 49.5),
    "max(staging.lead_bytes) <= 50": ("FAIL", 99.0),
    "min(staging.lead_bytes) >= 1": ("FAIL", 0.0),
    # A bare gauge is its latest sample, live and offline alike.
    "staging.lead_bytes <= 50": ("FAIL", 99.0),
}


def test_every_aggregation_over_a_recorded_gauge_is_judged_offline():
    record = _gauge_record(_recorded_gauge([float(i) for i in range(100)]))
    results = evaluate_record(
        [parse_slo(spec) for spec in GAUGE_VERDICTS], record)
    assert {
        r.slo.spec(): (r.status, r.value) for r in results
    } == GAUGE_VERDICTS
    assert all(r.source == "gauges" for r in results)


def test_check_registry_judges_gauge_percentiles(tmp_path):
    from repro.obs.registry import RunRegistry
    from repro.obs.slo import check_registry

    registry = RunRegistry(str(tmp_path))
    record = registry.append(
        "softstage-seed0", "demo", {},
        gauges=_recorded_gauge([float(i) for i in range(100)]))
    ((rec_id, results),) = check_registry(
        registry, [parse_slo(spec) for spec in GAUGE_VERDICTS])
    assert rec_id == record.rec_id
    assert [(r.status, r.value) for r in results] == list(
        GAUGE_VERDICTS.values())
    assert len(violations(results)) == 4


@pytest.mark.parametrize("agg", ["value", "mean", "min", "max",
                                 "p50", "p90", "p95", "p99"])
def test_live_and_offline_judge_a_gauge_alike(agg):
    """One non-monotone timeline of 1,000 samples, judged offline from
    the record and live from a window longer than the run: the same
    value, exactly (past 256 samples a sketch's percentiles were only
    approximate, and a bare gauge read the mean)."""
    from repro.obs.slo import _window_agg

    values = [round(100 * math.sin(i * 0.37) + i % 13, 6)
              for i in range(1000)]
    assert len(values) < MAX_WINDOW_SAMPLES
    metric = "staging.lead_bytes"
    slo = parse_slo(
        (metric if agg == "value" else f"{agg}({metric})") + " <= 0 @ 5000")
    live = LiveSLOEvaluator([slo])
    for t, value in enumerate(values):
        live.feed(*gauge_item(float(t), value, gauge=metric))
    window = [v for _t, v in live._windows[slo.name]]
    assert window == values
    (offline,) = evaluate_record([slo], _gauge_record(_recorded_gauge(values)))
    assert offline.value == _window_agg(window, agg)


def test_gauges_are_judged_from_timelines_not_old_gauge_sketches():
    """Registry lines written before gauges were judged from timelines
    hold ``gauge.<name>`` stat and ``.q`` sketches: they are ignored."""
    old = serialize_sketches(_sketches_with("gauge.staging.lead_bytes.q",
                                            [1.0, 2.0]))
    old["gauge.staging.lead_bytes"] = {
        "kind": "stat", "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}
    specs = [parse_slo("max(staging.lead_bytes) <= 5"),
             parse_slo("p50(staging.lead_bytes) <= 5")]
    without = evaluate_record(specs, _gauge_record({}, sketches=old))
    assert [r.status for r in without] == ["no-data", "no-data"]
    timeline = _recorded_gauge([7.0, 3.0])
    judged = evaluate_record(specs, _gauge_record(timeline, sketches=old))
    assert [(r.status, r.value) for r in judged] == [
        ("FAIL", 7.0), ("pass", 3.0)]


@pytest.mark.parametrize("series", [
    {"t": [0.0]}, {"t": [0.0], "v": None}, {"t": [0.0], "v": ["x"]},
    {"t": [], "v": []}, [1.0, 2.0], None,
])
def test_a_series_without_numeric_values_is_no_data(series):
    (result,) = evaluate_record([parse_slo("max(g) <= 1")],
                                _gauge_record({"g": series}))
    assert result.status == "no-data"


def test_default_slos_are_the_paper_shape_set():
    specs = [slo.spec() for slo in DEFAULT_SLOS]
    assert "gain >= 1.2" in specs
    assert any("stage_latency" in s for s in specs)
    assert any("ready_before_fetch_ratio" in s for s in specs)


def test_check_payload_and_render_are_deterministic():
    per_record = [(
        "rec1",
        evaluate_slos([parse_slo("gain >= 1.2")], metrics={"gain": 0.8}),
    )]
    payload = check_payload(per_record)
    assert payload["violations"] == ["rec1: gain >= 1.2"]
    text = render_check(per_record)
    assert "FAIL" in text and "1 SLO violation(s)" in text
    assert render_check(per_record) == text
    json.dumps(payload)  # must be serializable


# -- alerts -------------------------------------------------------------------


def test_alert_log_round_trip(tmp_path):
    log = AlertLog(str(tmp_path))
    alert = AlertRecord(
        slo="gain >= 1.2", run="softstage-seed0", value=0.9,
        threshold=1.2, t=12.5, kind="burn", burn_rate=0.4, window_s=30.0,
        source="live",
    )
    log.append(alert)
    log.append(AlertRecord(slo="x <= 1", run="r", value=2.0, threshold=1.0))
    loaded = log.read()
    assert loaded[0] == alert
    assert len(loaded) == 2
    assert "burn 40%" in alert.describe()


def test_alert_log_missing_file_reads_empty(tmp_path):
    assert AlertLog(str(tmp_path / "nope")).read() == []


# -- live evaluation ----------------------------------------------------------


def gauge_item(t, value, gauge="staging.lead_chunks", run="r1"):
    """One sampler tick's hub item: ``gauge`` read beside a neighbour."""
    return "gauge", {"run": run, "t": t,
                     "gauges": {"client.connected": 1.0, gauge: value}}


def test_live_evaluator_fires_on_transition_only():
    slo = parse_slo("staging.lead_chunks >= 2.0 @ 10")
    ev = LiveSLOEvaluator([slo])
    for t in range(5):
        ev.feed(*gauge_item(float(t), 5.0))
    assert ev.alerts == []
    ev.feed(*gauge_item(5.0, 0.0))   # latest value violates
    assert len(ev.alerts) == 1
    ev.feed(*gauge_item(6.0, 0.0))   # still violating: no re-fire
    assert len(ev.alerts) == 1
    ev.feed(*gauge_item(7.0, 5.0))   # recovers
    ev.feed(*gauge_item(8.0, 0.0))   # violates again: second alert
    assert len(ev.alerts) == 2
    alert = ev.alerts[0]
    assert alert.kind == "burn" and alert.run == "r1"
    assert 0.0 < alert.burn_rate <= 1.0


def test_live_evaluator_keeps_slos_apart_past_the_sixth_digit():
    slos = [parse_slo("x <= 1.0000001"), parse_slo("x <= 1.0000002")]
    assert slos[0].name != slos[1].name
    ev = LiveSLOEvaluator(slos)
    ev.feed(*gauge_item(0.0, 1.00000015, gauge="x"))
    ev.feed(*gauge_item(1.0, 1.00000015, gauge="x"))
    # Only the tighter ceiling is violated, and it stays violated.
    assert [alert.slo for alert in ev.alerts] == ["x <= 1.0000001"]


def test_live_window_slides_by_sim_time():
    slo = parse_slo("mean(g) >= 1.0 @ 10")
    ev = LiveSLOEvaluator([slo])
    ev.feed(*gauge_item(0.0, 0.0, gauge="g"))   # mean 0 → violating
    assert len(ev.alerts) == 1
    # 100 s later the bad sample has aged out; the window holds only
    # the healthy one, so a later dip re-fires.
    ev.feed(*gauge_item(100.0, 2.0, gauge="g"))
    ev.feed(*gauge_item(101.0, -2.0, gauge="g"))
    assert len(ev.alerts) == 2
    assert ev.alerts[-1].burn_rate == pytest.approx(0.5)


def test_live_evaluator_judges_wide_chunks():
    ev = LiveSLOEvaluator([
        parse_slo("p95(fetch_latency) <= 1.0 @ 1000"),
        parse_slo("ready_before_fetch_ratio >= 0.99 @ 1000"),
    ])
    for i in range(4):
        ev.feed("wide", {
            "kind": "chunk", "run": "r1", "t_fetched": float(i),
            "fetch_latency": 0.5, "ready_wait_s": 0.1,
        })
    assert ev.alerts == []
    ev.feed("wide", {
        "kind": "chunk", "run": "r1", "t_fetched": 4.0,
        "fetch_latency": 60.0, "ready_wait_s": -1.0,
    })
    fired = {a.slo for a in ev.alerts}
    assert "p95(fetch_latency) <= 1 @ 1000" in fired
    assert "ready_before_fetch_ratio >= 0.99 @ 1000" in fired
    ev.feed("wide", {"kind": "run", "run": "r1"})  # summary: ignored


def test_live_evaluator_resets_windows_per_run():
    slo = parse_slo("mean(g) >= 1.0 @ 1000")
    ev = LiveSLOEvaluator([slo])
    ev.feed(*gauge_item(0.0, 0.0, gauge="g", run="a"))
    assert len(ev.alerts) == 1
    # A fresh run with a healthy stream must not inherit run a's
    # violating window (or its violating state).
    ev.feed(*gauge_item(0.0, 5.0, gauge="g", run="b"))
    assert len(ev.alerts) == 1
    ev.feed(*gauge_item(1.0, -5.0, gauge="g", run="b"))
    assert len(ev.alerts) == 2 and ev.alerts[-1].run == "b"


def test_live_evaluator_judges_run_finished_values():
    ev = LiveSLOEvaluator([parse_slo("download_time <= 30")])
    ev.feed("run", {"run": "r1", "state": "finished",
                    "download_time": 55.0})
    assert len(ev.alerts) == 1
    assert ev.alerts[0].value == 55.0


def test_live_evaluator_over_hub_with_alert_log(tmp_path):
    hub = TelemetryHub()
    listener = hub.subscribe(topics={"alert"})
    log = AlertLog(str(tmp_path))
    ev = LiveSLOEvaluator([parse_slo("g >= 1.0 @ 10")]).start(hub, log)
    hub.publish(*gauge_item(0.0, 0.5, gauge="g"))
    # The alert arrives back over the hub before we close it.
    topic, payload = listener.get(timeout=5.0)
    assert topic == "alert" and payload["slo"] == "g >= 1 @ 10"
    hub.close()
    ev.join(timeout=5.0)
    assert len(ev.alerts) == 1
    assert len(log.read()) == 1


def test_live_evaluator_attached_keeps_fixed_seed_bit_identical(tmp_path):
    """Acceptance: live SLO evaluator + sketches + strict auditor
    attached must not perturb a fixed-seed run."""
    from repro.experiments.runner import run_download
    from repro.experiments.params import MicrobenchParams

    params = MicrobenchParams(file_size=2 * 1024 * 1024)

    def run(with_obs):
        hub = TelemetryHub() if with_obs else None
        ev = None
        if with_obs:
            ev = LiveSLOEvaluator(DEFAULT_SLOS).start(
                hub, AlertLog(str(tmp_path))
            )
        result = run_download(
            "softstage", params=params, seed=3,
            gauges=with_obs, audit=with_obs, sketches=with_obs,
            hub=hub,
        )
        if hub is not None:
            hub.close()
            ev.join(timeout=5.0)
        return (
            result.download_time,
            result.download.chunks_completed,
            result.download.chunks_from_edge,
        )

    assert run(False) == run(True)
