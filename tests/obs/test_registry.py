"""Run registry: persistence, lookup, diffing and the ``runs`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.obs.registry import (
    GAIN_REGRESSION_THRESHOLD,
    RunRecord,
    RunRegistry,
    diff_records,
    record_from_result,
    regressions,
)


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(str(tmp_path / "runs"))


def test_append_assigns_sequential_rec_ids_and_persists(registry):
    first = registry.append("run-a", "demo", {"gain": 1.8})
    second = registry.append("run-b", "demo", {"gain": 1.7})
    assert first.rec_id == "0001/run-a"
    assert second.rec_id == "0002/run-b"
    loaded = registry.records()
    assert [r.rec_id for r in loaded] == ["0001/run-a", "0002/run-b"]
    assert loaded[0].metrics == {"gain": 1.8}
    assert loaded[0].git_sha and loaded[0].machine
    assert loaded[0].recorded_at  # ISO stamp present


def test_env_var_overrides_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env-runs"))
    registry = RunRegistry()
    registry.append("r", "demo", {})
    assert (tmp_path / "env-runs" / "registry.jsonl").exists()


def test_find_exact_then_latest_substring(registry):
    registry.append("softstage-seed0", "demo", {"n": 1})
    registry.append("softstage-seed0", "demo", {"n": 2})
    registry.append("xftp-seed0", "demo", {"n": 3})
    assert registry.find("0001/softstage-seed0").metrics == {"n": 1}
    # Substring resolution returns the *latest* match.
    assert registry.find("softstage").metrics == {"n": 2}
    with pytest.raises(KeyError, match="no registry record"):
        registry.find("nonexistent")


def test_find_prefers_an_exact_run_id_over_a_longer_one(registry):
    registry.append("xftp-seed1", "demo", {"n": 1})
    registry.append("xftp-seed10", "demo", {"n": 10})
    registry.append("xftp-seed1", "demo", {"n": 2})
    registry.append("xftp-seed10", "demo", {"n": 20})
    # The latest record of exactly that run, not a later seed's.
    assert registry.find("xftp-seed1").rec_id == "0003/xftp-seed1"
    assert registry.find("xftp-seed10").metrics == {"n": 20}
    # A key no run is named exactly still resolves by substring.
    assert registry.find("seed1").rec_id == "0004/xftp-seed10"


def test_concurrent_appends_never_tear_lines(registry):
    from concurrent.futures import ThreadPoolExecutor

    def _append(worker: int) -> list[str]:
        return [
            registry.append(f"w{worker}-r{i}", "demo", {"n": i}).rec_id
            for i in range(5)
        ]

    with ThreadPoolExecutor(max_workers=6) as pool:
        issued = [r for ids in pool.map(_append, range(6)) for r in ids]

    # Every line is whole JSON (no torn writes) ...
    with open(registry.path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    parsed = [json.loads(line) for line in lines]
    assert len(parsed) == 30
    # ... every record survived ...
    assert {r["run_id"] for r in parsed} == {
        f"w{w}-r{i}" for w in range(6) for i in range(5)
    }
    # ... and the locked seq-read+write kept rec_id sequence numbers
    # unique and dense despite 6 writers racing.
    seqs = sorted(int(r["rec_id"].split("/")[0]) for r in parsed)
    assert seqs == list(range(1, 31))
    assert sorted(issued) == sorted(r["rec_id"] for r in parsed)


def test_unknown_keys_round_trip(registry, tmp_path):
    registry.append("r", "demo", {"gain": 1.0})
    # Simulate a newer writer adding a top-level key.
    with open(registry.path, encoding="utf-8") as fh:
        payload = json.loads(fh.readline())
    payload["future_field"] = {"x": 1}
    record = RunRecord.from_json(payload)
    assert record.extra == {"future_field": {"x": 1}}
    assert record.to_json()["future_field"] == {"x": 1}


def test_gauge_series_filter_folds_separators():
    record = RunRecord.from_json({
        "rec_id": "0001/r", "run_id": "r", "kind": "demo",
        "gauges": {
            "cache.occupancy_bytes.xcache-A": {"t": [0], "v": [1]},
            "staging.lead_bytes": {"t": [0], "v": [2]},
        },
    })
    assert set(record.gauge_series("cache_occupancy")) == {
        "cache.occupancy_bytes.xcache-A"
    }
    assert set(record.gauge_series("staging.lead")) == {"staging.lead_bytes"}


# ---------------------------------------------------------------------------
# Diffing and gain-regression detection
# ---------------------------------------------------------------------------


def _record(rec_id, metrics):
    return RunRecord.from_json(
        {"rec_id": rec_id, "run_id": rec_id, "kind": "demo",
         "metrics": metrics}
    )


def test_diff_flags_an_injected_fig6_gain_regression():
    baseline = _record("a", {"gain.3s": 1.55, "gain.12s": 1.77,
                             "download_time": 40.0})
    # Inject a Fig. 6 shape regression: the 12 s encounter gain
    # collapses well past the threshold; the 3 s point holds.
    regressed = _record("b", {"gain.3s": 1.54, "gain.12s": 1.10,
                              "download_time": 41.0})
    deltas = diff_records(baseline, regressed)
    flagged = regressions(deltas)
    assert [d.name for d in flagged] == ["gain.12s"]
    assert flagged[0].ratio < 1.0 - GAIN_REGRESSION_THRESHOLD
    # Non-gain metrics never flag, and a small gain wobble doesn't.
    assert all(d.name == "gain.12s" for d in flagged)


def test_diff_ignores_non_numeric_and_unshared_metrics():
    a = _record("a", {"gain": 1.7, "only_a": 1.0, "label": "x"})
    b = _record("b", {"gain": 1.7, "only_b": 2.0, "label": "y"})
    deltas = diff_records(a, b)
    assert [d.name for d in deltas] == ["gain"]
    assert not regressions(deltas)


def test_diff_handles_zero_baseline():
    deltas = diff_records(_record("a", {"gain": 0.0}),
                          _record("b", {"gain": 1.0}))
    assert deltas[0].ratio is None
    assert not deltas[0].regression


def test_record_from_result_strips_gauge_prefix():
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.util import MB

    result = run_download(
        "softstage", params=MicrobenchParams(file_size=2 * MB),
        seed=0, gauges=True,
    )
    run_id, metrics, gauges = record_from_result(result)
    assert run_id == "softstage-seed0"
    assert metrics["bytes_received"] == result.download.bytes_received
    assert "staging.lead_bytes" in gauges
    series = gauges["staging.lead_bytes"]
    assert len(series["t"]) == len(series["v"]) > 0


# ---------------------------------------------------------------------------
# The ``runs`` CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def populated_dir(tmp_path):
    registry = RunRegistry(str(tmp_path))
    registry.append(
        "softstage-seed0", "demo", {"gain": 1.77, "download_time": 30.0},
        gauges={"staging.lead_bytes": {"t": [0.0, 1.0], "v": [0.0, 4.0]}},
    )
    registry.append(
        "softstage-seed1", "demo", {"gain": 1.20, "download_time": 44.0},
    )
    return str(tmp_path)


def test_cli_list(populated_dir, capsys):
    assert main(["runs", "--registry-dir", populated_dir, "list"]) == 0
    out = capsys.readouterr().out
    assert "0001/softstage-seed0" in out
    assert "gain=1.77x" in out


def test_cli_list_empty(tmp_path, capsys):
    assert main(["runs", "--registry-dir", str(tmp_path), "list"]) == 0
    assert "no records" in capsys.readouterr().out


def test_cli_show(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "show", "seed0"]
    ) == 0
    out = capsys.readouterr().out
    assert "0001/softstage-seed0" in out
    assert "staging.lead_bytes" in out


def test_cli_diff_exits_zero_and_names_the_regression(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "diff", "seed0", "seed1"]
    ) == 0
    out = capsys.readouterr().out
    assert "gain regression" in out
    assert "1.770 -> 1.200" in out


def test_cli_diff_fail_on_regression_exits_nonzero(populated_dir):
    with pytest.raises(SystemExit) as info:
        main(["runs", "--registry-dir", populated_dir, "diff",
              "seed0", "seed1", "--fail-on-regression"])
    assert info.value.code == 1


def test_cli_diff_without_regression(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "diff", "seed0", "seed0"]
    ) == 0
    assert "no gain regressions" in capsys.readouterr().out


def test_cli_gauges_sparkline_and_csv(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "gauges", "seed0",
         "--metric", "staging_lead"]
    ) == 0
    assert "staging.lead_bytes" in capsys.readouterr().out
    assert main(
        ["runs", "--registry-dir", populated_dir, "gauges", "seed0",
         "--metric", "staging_lead", "--csv"]
    ) == 0
    out = capsys.readouterr().out
    assert "gauge,t,value" in out
    assert "staging.lead_bytes,1,4" in out


def test_cli_list_json_shares_the_http_serialization(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "list", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    from repro.obs.registry import list_payload

    assert payload == json.loads(
        json.dumps(list_payload(RunRegistry(populated_dir)))
    )
    assert [r["rec_id"] for r in payload["records"]] == [
        "0001/softstage-seed0", "0002/softstage-seed1",
    ]
    # The listing carries gauge *names*, not the heavy timelines.
    assert payload["records"][0]["gauges"] == ["staging.lead_bytes"]


def test_cli_diff_json_names_regressions(populated_dir, capsys):
    assert main(
        ["runs", "--registry-dir", populated_dir, "diff",
         "seed0", "seed1", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == "0001/softstage-seed0"
    assert payload["regressions"] == ["gain"]
    gain = next(d for d in payload["deltas"] if d["name"] == "gain")
    assert gain["regression"] is True and gain["ratio"] < 1.0


def test_cli_diff_json_honours_fail_on_regression(populated_dir, capsys):
    with pytest.raises(SystemExit) as info:
        main(["runs", "--registry-dir", populated_dir, "diff",
              "seed0", "seed1", "--json", "--fail-on-regression"])
    assert info.value.code == 1
    # The payload still printed before the failing exit.
    assert json.loads(capsys.readouterr().out)["regressions"] == ["gain"]


def test_cli_gauges_unknown_metric_fails(populated_dir):
    with pytest.raises(SystemExit, match="no gauge matching"):
        main(["runs", "--registry-dir", populated_dir, "gauges", "seed0",
              "--metric", "bogus"])


def test_cli_unknown_record_fails(populated_dir):
    with pytest.raises(SystemExit, match="no registry record"):
        main(["runs", "--registry-dir", populated_dir, "show", "bogus"])
