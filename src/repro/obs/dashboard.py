"""A live terminal dashboard over the telemetry hub (or an SSE stream).

Two front doors share one renderer:

- ``python -m repro demo --live`` runs the demo on a background thread
  with a :class:`~repro.obs.stream.TelemetryHub` attached and repaints
  this dashboard from an in-process subscription;
- ``python -m repro watch <url>`` connects to a ``repro serve``
  process's ``/live`` Server-Sent Events endpoint and repaints from
  the wire.

The :class:`Dashboard` itself is a pure fold: ``feed(topic, payload)``
updates bounded in-memory state (latest gauge windows, a scrolling
wide-event tail, per-run status) and ``render()`` produces a plain
string frame — deterministic for a given feed sequence, which is what
the tests assert.  All painting is ANSI clear-and-redraw; no curses,
no dependencies.

Consumers read hub items at their own pace; if the dashboard falls
behind, the hub drops for it and the drop counter shows up in the
frame header — the simulation is never slowed (see
:mod:`repro.obs.stream`).
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import IO, Iterator, Optional, Union

from repro.obs.stream import TelemetrySubscription

_SPARK = "▁▂▃▄▅▆▇█"

#: Gauge families the dashboard plots, in display order; everything
#: else still updates the "last value" column.
FEATURED_GAUGES = (
    "staging.lead_bytes",
    "client.progress_bytes",
    "staging.pending_chunks",
    "client.connected",
)


def sparkline(values: list) -> str:
    """Unicode block sparkline (shared with the ``runs gauges`` CLI)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK[0] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _describe_wide(record: dict) -> str:
    """One tail line per wide event (unknown kinds degrade gracefully)."""
    kind = record.get("kind", "?")
    t = record.get("t_fetched", record.get("t_end", record.get("t", 0.0)))
    head = f"t={_fmt(t):>9}  {kind:<9}"
    if kind == "chunk":
        return (
            f"{head} {str(record.get('cid', ''))[:12]:<12} "
            f"{record.get('source', '?'):<8} "
            f"fetch={_fmt(record.get('fetch_latency'))}s "
            f"wait={_fmt(record.get('stage_wait_s'))}s "
            f"masked={_fmt(record.get('masked_s'))}s "
            f"lead={_fmt(record.get('lead_bytes'))}"
        )
    if kind == "encounter":
        return (
            f"{head} {record.get('key', ''):<12} "
            f"dur={_fmt(record.get('duration_s'))}s "
            f"chunks={_fmt(record.get('chunks_delivered'))}"
        )
    if kind == "gap":
        return (
            f"{head} {record.get('key', ''):<12} "
            f"offline={_fmt(record.get('duration_s'))}s"
        )
    if kind == "handoff":
        return (
            f"{head} ->{record.get('target', '?'):<10} "
            f"{record.get('status', '')} "
            f"dur={_fmt(record.get('duration_s'))}s"
        )
    if kind == "run":
        return (
            f"{head} chunks={_fmt(record.get('chunks'))} "
            f"edge={_fmt(record.get('chunks_edge'))} "
            f"masked={_fmt(record.get('masked_total_s'))}s"
        )
    return f"{head} {json.dumps(record, sort_keys=True)[:60]}"


class Dashboard:
    """Folds hub items into a renderable terminal frame."""

    #: Samples kept per gauge sparkline; wide events and alerts shown.
    window = 48
    tail = 10
    alert_tail = 5

    def __init__(self) -> None:
        self._series: dict[str, deque] = {}
        self._gauge_last_t: dict[str, float] = {}
        self._tail: deque = deque(maxlen=self.tail)
        self._alerts: deque = deque(maxlen=self.alert_tail)
        self._runs: dict[str, dict] = {}
        self.items_seen = 0
        self.wide_seen = 0
        self.alerts_seen = 0
        self.dropped = 0

    # -- the fold ----------------------------------------------------------

    def feed(self, topic: str, payload: dict) -> None:
        self.items_seen += 1
        if topic == "gauge":
            t = payload.get("t", 0.0)
            for name, value in payload.get("gauges", {}).items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = deque(maxlen=self.window)
                series.append(value)
                self._gauge_last_t[name] = t
        elif topic == "wide":
            self.wide_seen += 1
            self._tail.append(_describe_wide(payload))
        elif topic == "run":
            run = payload.get("run", "?")
            self._runs[run] = dict(payload)
        elif topic == "alert":
            self.alerts_seen += 1
            self._alerts.append(
                f"t={_fmt(payload.get('t')):>9}  "
                f"{payload.get('run', '?')}: {payload.get('slo', '?')} "
                f"observed={_fmt(payload.get('value'))} "
                f"burn={_fmt(payload.get('burn_rate'))}"
            )
        elif topic == "end":
            self.dropped = payload.get("dropped", self.dropped)

    def feed_many(self, items: list) -> int:
        for topic, payload in items:
            self.feed(topic, payload)
        return len(items)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        title = "repro live telemetry"
        lines = [title, "=" * len(title)]
        if self._runs:
            for run in sorted(self._runs):
                info = self._runs[run]
                state = info.get("state", "?")
                extra = ""
                if "download_time" in info:
                    extra = f"  time={_fmt(info['download_time'])}s"
                lines.append(f"run {run}: {state}{extra}")
        else:
            lines.append("run: (waiting for telemetry)")
        lines.append("")
        plotted = [g for g in FEATURED_GAUGES if g in self._series]
        other = sorted(set(self._series) - set(plotted))
        if plotted or other:
            width = max(len(name) for name in (*plotted, *other))
            for name in (*plotted, *other):
                series = self._series[name]
                values = list(series)
                last_t = self._gauge_last_t.get(name, 0.0)
                spark = (
                    sparkline(values) if name in plotted
                    else f"({len(values)} samples)"
                )
                lines.append(
                    f"  {name:<{width}}  {spark}  "
                    f"last={_fmt(values[-1])} @t={_fmt(last_t)}s"
                )
        else:
            lines.append("  (no gauge samples yet — run with --gauges)")
        lines.append("")
        lines.append(f"wide events ({self.wide_seen} total):")
        if self._tail:
            lines.extend(f"  {entry}" for entry in self._tail)
        else:
            lines.append("  (none yet)")
        if self.alerts_seen:
            lines.append("")
            lines.append(f"SLO alerts ({self.alerts_seen} total):")
            lines.extend(f"  {entry}" for entry in self._alerts)
        lines.append("")
        lines.append(
            f"items={self.items_seen} wide={self.wide_seen} "
            f"alerts={self.alerts_seen} dropped={self.dropped}"
        )
        return "\n".join(lines)


# -- SSE client (for ``repro watch``) ----------------------------------------


def iter_sse(
    stream: Union[IO[bytes], IO[str]],
) -> Iterator[tuple[str, dict]]:
    """Parse Server-Sent Events into ``(event, payload)`` pairs.

    The exact inverse of :func:`repro.obs.server.sse_format`: comment
    frames (``: keep-alive``) are skipped, multi-line ``data:`` is
    joined, a missing ``event:`` defaults to ``"message"``.  Ends when
    the stream does.
    """
    event: Optional[str] = None
    data_lines: list[str] = []
    for raw in stream:
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.rstrip("\r\n")
        if not line:
            if data_lines:
                payload = json.loads("\n".join(data_lines))
                yield (event or "message", payload)
            event = None
            data_lines = []
        elif line.startswith(":"):
            continue
        elif line.startswith("event:"):
            event = line[len("event:"):].strip()
        elif line.startswith("data:"):
            data_lines.append(line[len("data:"):].strip())
    if data_lines:
        yield (event or "message", json.loads("\n".join(data_lines)))


# -- repaint loops ------------------------------------------------------------

#: Wall-clock seconds between repaints.
REFRESH = 0.25

_CLEAR = "\x1b[2J\x1b[H"


def _paint(dash: Dashboard, clear: bool) -> None:
    out = sys.stdout
    if clear:
        out.write(_CLEAR)
    out.write(dash.render())
    out.write("\n")
    out.flush()


def run_from_subscription(
    sub: TelemetrySubscription, clear: bool = True
) -> Dashboard:
    """Repaint from an in-process hub subscription until the hub closes."""
    dash = Dashboard()
    while True:
        drained = dash.feed_many(sub.drain())
        _paint(dash, clear)
        if sub.closed and not drained:
            return dash
        time.sleep(REFRESH)


def run_from_sse(
    stream,
    clear: bool = True,
    max_events: Optional[int] = None,
) -> Dashboard:
    """Repaint from an SSE byte stream until it ends (``repro watch``)."""
    dash = Dashboard()
    painted = 0
    for topic, payload in iter_sse(stream):
        if topic == "hello":
            continue
        dash.feed(topic, payload)
        painted += 1
        _paint(dash, clear)
        if topic == "end":
            break
        if max_events is not None and painted >= max_events:
            break
    if painted == 0:
        _paint(dash, clear)
    return dash
