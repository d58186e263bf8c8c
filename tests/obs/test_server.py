"""The HTTP telemetry service: registry endpoints, /diff gate, SSE."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.registry import RunRegistry
from repro.obs.server import make_server, sse_format
from repro.obs.stream import TelemetryHub
from repro.obs.wide import WideEventWriter


@pytest.fixture
def service(tmp_path):
    """A served registry: two healthy records, one regressed, wide events."""
    registry = RunRegistry(str(tmp_path))
    registry.append(
        "softstage-seed0", "demo",
        {"gain": 1.77, "download_time": 30.0},
        gauges={"staging.lead_bytes": {"t": [0.0, 1.0], "v": [0.0, 4.0]},
                "client.connected": {"t": [0.0], "v": [1.0]}},
    )
    registry.append("xftp-seed0", "demo", {"gain": 1.75})
    registry.append("demo-regressed", "demo", {"gain": 1.10})
    wide_dir = tmp_path / "wide"
    wide_dir.mkdir()
    with WideEventWriter(str(wide_dir / "demo.jsonl")) as writer:
        writer.write({"kind": "chunk", "run": "softstage-seed0", "seq": 0})
        writer.write({"kind": "run", "run": "softstage-seed0", "seq": 1})
        writer.write({"kind": "run", "run": "xftp-seed0", "seq": 0})
    hub = TelemetryHub()
    server = make_server(port=0, registry=registry, hub=hub)
    server.serve_background()
    yield server, registry, hub
    hub.close()
    server.shutdown()
    server.server_close()


def _get(server, path):
    """(status, parsed body) for a GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(server.url + path) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _quote(spec):
    import urllib.parse

    return urllib.parse.quote(spec)


def test_index_and_healthz(service):
    server, _registry, _hub = service
    status, index = _get(server, "/")
    assert status == 200
    assert index["records"] == 3
    assert index["live"] is True
    assert "/diff?a=<key>&b=<key>" in index["endpoints"]
    assert _get(server, "/healthz") == (200, {"ok": True})


_GAIN_SLO = "gain >= 1.2"

#: One registry question per row, asked through both doors: (family,
#: argv after ``--registry-dir DIR``, endpoint, exit code, HTTP status).
#: ``demo-collapsed`` is the injected ``gain: 0.5`` record.
_TWO_DOORS = {
    "runs-list": ("runs", ["list", "--json"], "/runs", 0, 200),
    "diff-healthy": (
        "runs", ["diff", "softstage-seed0", "xftp-seed0", "--json",
                 "--fail-on-regression"],
        "/diff?a=softstage-seed0&b=xftp-seed0", 0, 200,
    ),
    "diff-collapsed": (
        "runs", ["diff", "softstage-seed0", "demo-collapsed", "--json",
                 "--fail-on-regression"],
        "/diff?a=softstage-seed0&b=demo-collapsed", 1, 409,
    ),
    "why-healthy": (
        "runs", ["why", "softstage-seed0", "xftp-seed0", "--json"],
        "/runs/xftp-seed0/explain?base=softstage-seed0", 0, 200,
    ),
    "why-collapsed": (
        "runs", ["why", "softstage-seed0", "demo-collapsed", "--json"],
        "/runs/demo-collapsed/explain?base=softstage-seed0", 0, 200,
    ),
    "slo-healthy": (
        "slo", ["check", "--json", "--no-alerts", "--slo", _GAIN_SLO,
                "softstage-seed0", "xftp-seed0"],
        "/slo?run=softstage-seed0&run=xftp-seed0&slo=" + _quote(_GAIN_SLO),
        0, 200,
    ),
    "slo-collapsed": (
        "slo", ["check", "--json", "--no-alerts", "--slo", _GAIN_SLO,
                "demo-collapsed"],
        "/slo?run=demo-collapsed&slo=" + _quote(_GAIN_SLO), 1, 409,
    ),
}


@pytest.mark.parametrize("question", sorted(_TWO_DOORS))
def test_runs_listing_shares_the_cli_json_serialization(
    service, question, capsys
):
    """CLI ≡ HTTP: the body is the ``--json`` output, and the status
    (200/409) is the exit code (0/1)."""
    from repro.__main__ import main

    server, registry, _hub = service
    registry.append("demo-collapsed", "demo", {"gain": 0.5})
    with WideEventWriter(server.wide_dir + "/collapsed.jsonl") as writer:
        writer.write({"kind": "run", "run": "demo-collapsed", "seq": 0})
    family, argv, path, exit_code, http_status = _TWO_DOORS[question]
    try:
        code = main([family, "--registry-dir", registry.directory, *argv])
    except SystemExit as exit_:
        code = exit_.code
    printed = json.loads(capsys.readouterr().out)
    status, payload = _get(server, path)
    if family == "slo":
        # The endpoint also echoes the SLO set it judged against.
        assert payload.pop("slos") == [_GAIN_SLO]
    assert payload == printed
    assert (code, status) == (exit_code, http_status)


def test_single_run_resolution_and_404(service):
    server, _registry, _hub = service
    status, record = _get(server, "/runs/softstage-seed0")
    assert status == 200
    assert record["rec_id"] == "0001/softstage-seed0"
    assert record["metrics"]["gain"] == 1.77
    status, error = _get(server, "/runs/bogus")
    assert status == 404
    assert "bogus" in error["error"]
    assert _get(server, "/nonsense")[0] == 404
    assert _get(server, "/runs/softstage-seed0/nonsense")[0] == 404


def test_gauges_endpoint_filters_like_the_cli(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/runs/softstage-seed0/gauges")
    assert status == 200
    assert set(payload["gauges"]) == {
        "staging.lead_bytes", "client.connected",
    }
    _status, filtered = _get(
        server, "/runs/softstage-seed0/gauges?metric=staging_lead"
    )
    assert set(filtered["gauges"]) == {"staging.lead_bytes"}
    assert filtered["gauges"]["staging.lead_bytes"]["v"] == [0.0, 4.0]


def test_wide_endpoint_serves_only_the_requested_run(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/runs/softstage-seed0/wide")
    assert status == 200
    assert [r["seq"] for r in payload["records"]] == [0, 1]
    assert all(r["run"] == "softstage-seed0" for r in payload["records"])


def test_diff_gate_returns_409_exactly_on_regression(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/diff?a=softstage-seed0&b=xftp-seed0")
    assert status == 200
    assert payload["regressions"] == []
    # The injected regression (1.77 -> 1.10) breaches the threshold.
    status, payload = _get(server, "/diff?a=softstage-seed0&b=demo-regressed")
    assert status == 409
    assert payload["regressions"] == ["gain"]
    (delta,) = [d for d in payload["deltas"] if d["name"] == "gain"]
    assert delta["regression"] is True
    # A forgiving threshold turns the same pair green.
    status, _payload = _get(
        server, "/diff?a=softstage-seed0&b=demo-regressed&threshold=0.9"
    )
    assert status == 200


def test_diff_validates_its_query(service):
    server, _registry, _hub = service
    assert _get(server, "/diff")[0] == 400
    assert _get(server, "/diff?a=softstage-seed0")[0] == 400
    assert _get(server, "/diff?a=softstage-seed0&b=bogus")[0] == 404
    # A nan or inf threshold flags no gain collapse, a negative one every
    # gain: each answers 400, not a diff that passes the curl -f gate.
    for bad in ("x", "nan", "inf", "-0.5", "1.5"):
        assert _get(
            server, f"/diff?a=softstage-seed0&b=xftp-seed0&threshold={bad}"
        )[0] == 400, bad


# ---------------------------------------------------------------------------
# SSE
# ---------------------------------------------------------------------------


def test_sse_format_wire_shape():
    frame = sse_format("gauge", {"v": 1.5, "gauge": "x"})
    assert frame == b'event: gauge\ndata: {"gauge":"x","v":1.5}\n\n'


def test_live_streams_hub_traffic_until_close(service):
    server, _registry, hub = service
    frames = []

    def _consume():
        with urllib.request.urlopen(server.url + "/live") as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            event = None
            for raw in response:
                line = raw.decode().rstrip("\n")
                if line.startswith("event:"):
                    event = line.split(": ", 1)[1]
                elif line.startswith("data:") and event is not None:
                    frames.append((event, json.loads(line[len("data:"):])))
                    if event == "end":
                        return

    consumer = threading.Thread(target=_consume, daemon=True)
    consumer.start()
    # Wait for the consumer's subscription to appear before publishing.
    for _ in range(100):
        if hub.subscriber_count:
            break
        threading.Event().wait(0.01)
    hub.publish("gauge", {"run": "r", "t": 1.0, "gauge": "g", "v": 2.0})
    hub.publish("wide", {"kind": "chunk", "run": "r", "seq": 0})
    hub.close()
    consumer.join(timeout=10)
    assert not consumer.is_alive()
    assert [topic for topic, _p in frames] == [
        "hello", "gauge", "wide", "end",
    ]
    assert frames[1][1]["v"] == 2.0
    assert frames[-1][1]["published"] == 2


def test_live_without_a_hub_is_503(tmp_path):
    server = make_server(port=0, registry=RunRegistry(str(tmp_path)))
    server.serve_background()
    try:
        try:
            with urllib.request.urlopen(server.url + "/live"):
                raise AssertionError("expected a 503")
        except urllib.error.HTTPError as error:
            assert error.code == 503
        status_index = urllib.request.urlopen(server.url + "/")
        assert json.loads(status_index.read())["live"] is False
    finally:
        server.shutdown()
        server.server_close()


# ---------------------------------------------------------------------------
# Bad input contract: 400 JSON bodies, 500 JSON on unexpected failure
# ---------------------------------------------------------------------------


def test_gauges_rejects_blank_and_unmatched_metric_filters(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/runs/softstage-seed0/gauges?metric=")
    assert status == 400
    assert "non-empty" in payload["error"]
    status, payload = _get(
        server, "/runs/softstage-seed0/gauges?metric=bogus"
    )
    assert status == 400
    assert "bogus" in payload["error"]
    assert "staging.lead_bytes" in payload["error"]  # names what exists


def test_unexpected_handler_failure_is_json_500(service):
    server, _registry, _hub = service

    class ExplodingRegistry:
        def records(self):
            raise RuntimeError("registry exploded")

    server.registry = ExplodingRegistry()
    status, payload = _get(server, "/slo")
    assert status == 500
    assert "RuntimeError" in payload["error"]
    assert "registry exploded" in payload["error"]


# ---------------------------------------------------------------------------
# /slo: the SLO gate endpoint
# ---------------------------------------------------------------------------


def test_slo_passes_a_healthy_subset(service):
    server, _registry, _hub = service
    status, payload = _get(
        server, "/slo?run=softstage-seed0&slo=" + _quote("gain >= 1.2")
    )
    assert status == 200
    assert payload["slos"] == ["gain >= 1.2"]
    assert payload["violations"] == []
    (row,) = payload["records"]
    assert row["rec_id"] == "0001/softstage-seed0"
    (result,) = row["results"]
    assert result["status"] == "pass" and result["value"] == 1.77


def test_slo_gate_is_409_when_any_record_violates(service):
    server, _registry, _hub = service
    # The whole registry includes demo-regressed (gain 1.10 < 1.2).
    status, payload = _get(server, "/slo?slo=" + _quote("gain >= 1.2"))
    assert status == 409
    assert any("demo-regressed" in v for v in payload["violations"])


def test_slo_validates_specs_and_run_keys(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/slo?slo=garbage")
    assert status == 400
    assert "garbage" in payload["error"]
    status, payload = _get(server, "/slo?run=bogus")
    assert status == 404
    assert "bogus" in payload["error"]


# ---------------------------------------------------------------------------
# /runs/<key>/explain: root-cause attribution over HTTP
# ---------------------------------------------------------------------------


def test_explain_compares_against_the_base_run(service):
    server, _registry, _hub = service
    status, payload = _get(
        server, "/runs/xftp-seed0/explain?base=softstage-seed0"
    )
    assert status == 200
    assert payload["a"] == "0001/softstage-seed0"
    assert payload["b"] == "0002/xftp-seed0"
    assert [c["name"] for c in payload["contributors"]]  # ranked list
    assert "verdict" in payload


def test_explain_validates_base_and_wide_availability(service):
    server, _registry, _hub = service
    status, payload = _get(server, "/runs/xftp-seed0/explain")
    assert status == 400
    assert "base" in payload["error"]
    status, payload = _get(server, "/runs/xftp-seed0/explain?base=bogus")
    assert status == 404
    # demo-regressed has no wide events on disk.
    status, payload = _get(
        server, "/runs/demo-regressed/explain?base=softstage-seed0"
    )
    assert status == 404
    assert "wide events" in payload["error"]
