"""The terminal dashboard: pure fold + render, and the SSE client."""

import io

from repro.obs.dashboard import (
    Dashboard,
    iter_sse,
    run_from_sse,
    sparkline,
)
from repro.obs.server import sse_format


# ---------------------------------------------------------------------------
# Sparklines (shared with the ``runs gauges`` CLI)
# ---------------------------------------------------------------------------


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
    ramp = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
    assert ramp == "▁▂▃▄▅▆▇█"


# ---------------------------------------------------------------------------
# The fold and the frame
# ---------------------------------------------------------------------------


def _feed_demo_traffic(dash):
    dash.feed("run", {"run": "softstage-seed0", "state": "started"})
    for i in range(4):
        gauges = {"staging.lead_bytes": float(i)}
        if i == 3:  # a gauge registered late joins the last tick
            gauges["vnf.queue_depth"] = 2.0
        dash.feed("gauge", {"run": "softstage-seed0", "t": float(i),
                            "gauges": gauges})
    dash.feed("wide", {"kind": "chunk", "cid": "cid-123", "source": "edge",
                       "t_fetched": 3.5, "fetch_latency": 0.25,
                       "stage_wait_s": 1.0, "masked_s": 0.0,
                       "lead_bytes": 3.0})
    dash.feed("run", {"run": "softstage-seed0", "state": "finished",
                      "download_time": 12.5})


def test_render_is_a_deterministic_function_of_the_feed():
    one, two = Dashboard(), Dashboard()
    _feed_demo_traffic(one)
    _feed_demo_traffic(two)
    assert one.render() == two.render()
    frame = one.render()
    assert "run softstage-seed0: finished  time=12.5s" in frame
    assert "staging.lead_bytes" in frame
    assert "▁" in frame  # a sparkline was plotted
    # Non-featured gauges show sample counts, not sparklines.
    assert "vnf.queue_depth" in frame and "(1 samples)" in frame
    assert "cid-123" in frame and "edge" in frame
    assert f"items={one.items_seen}" in frame


def test_empty_dashboard_renders_placeholders():
    frame = Dashboard().render()
    assert "(waiting for telemetry)" in frame
    assert "--gauges" in frame
    assert "(none yet)" in frame


def test_tail_is_bounded_and_drop_counter_lands_in_the_frame():
    dash = Dashboard()
    for i in range(Dashboard.tail + 5):
        dash.feed("wide", {"kind": "chunk", "cid": f"c{i}",
                           "t_fetched": float(i)})
    dash.feed("end", {"published": 15, "dropped": 7})
    frame = dash.render()
    assert "c14" in frame and "c4" not in frame  # only the newest kept
    assert dash.wide_seen == 15
    assert "dropped=7" in frame


def test_unknown_wide_kind_degrades_gracefully():
    dash = Dashboard()
    dash.feed("wide", {"kind": "novel", "t": 1.0, "x": 1})
    assert "novel" in dash.render()


# ---------------------------------------------------------------------------
# The SSE client (inverse of server.sse_format)
# ---------------------------------------------------------------------------


def test_iter_sse_round_trips_sse_format():
    items = [
        ("hello", {"live": True}),
        ("gauge", {"run": "r", "t": 1.0, "gauges": {"g": 2.0, "h": 0.5}}),
        ("wide", {"kind": "chunk", "seq": 0}),
        ("end", {"published": 2}),
    ]
    wire = b"".join(sse_format(topic, payload) for topic, payload in items)
    # Keep-alive comments on the wire are transparent to the parser.
    wire = wire.replace(b"event: wide", b": keep-alive\n\nevent: wide")
    parsed = list(iter_sse(io.BytesIO(wire)))
    assert parsed == items


def test_a_gauge_frame_keeps_its_readings_in_tick_order():
    tick = {"run": "r", "t": 1.0,
            "gauges": {"pool.event_allocs": 4.0, "pool.events_free": 3.0,
                       "cache.occupancy_bytes.b": 0.0, "a": 1.0}}
    wire = sse_format("gauge", tick)
    # The envelope's keys sort as every frame's do; the readings do not.
    assert wire.startswith(b'event: gauge\ndata: {"gauges":{"pool.event_allocs"')
    ((topic, payload),) = iter_sse(io.BytesIO(wire))
    assert topic == "gauge" and payload == tick
    assert list(payload["gauges"]) == list(tick["gauges"])
    assert list(payload) == ["gauges", "run", "t"]


def test_iter_sse_joins_multiline_data_and_defaults_the_event():
    wire = b"data: {\"a\":\ndata: 1}\n\n"
    assert list(iter_sse(io.BytesIO(wire))) == [("message", {"a": 1})]


def test_run_from_sse_paints_until_end(capsys):
    wire = b"".join([
        sse_format("hello", {"live": True}),
        sse_format("gauge", {"run": "r", "t": 0.0,
                             "gauges": {"staging.lead_bytes": 1.0}}),
        sse_format("end", {"published": 1, "dropped": 0}),
    ])
    dash = run_from_sse(io.BytesIO(wire), clear=False)
    painted = capsys.readouterr().out
    assert dash.items_seen == 2  # hello frames are not items
    assert "staging.lead_bytes" in painted
    assert "dropped=0" in painted


def test_alert_pane_appears_only_once_alerts_arrive():
    dash = Dashboard()
    assert "SLO alerts" not in dash.render()
    for t in range(1, Dashboard.alert_tail + 2):
        dash.feed("alert", {
            "t": float(t), "run": "demo-seed0", "slo": "gain >= 1.2",
            "value": 1.1, "burn_rate": 1.0,
        })
    frame = dash.render()
    assert "SLO alerts (6 total):" in frame
    assert "demo-seed0: gain >= 1.2" in frame
    assert "observed=1.1" in frame
    # alert_tail bounds the pane: the t=1 alert scrolled off.
    assert "t=        2" in frame and "t=        1" not in frame
    assert "alerts=6" in frame  # footer counter
