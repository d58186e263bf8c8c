"""A stdlib-only HTTP service over the run registry and telemetry hub.

``python -m repro serve`` turns the batch observability workflow into a
long-running service: the ``.repro_runs`` registry becomes a queryable
database, ``repro runs diff`` becomes a regression *endpoint* CI can
curl, and an in-progress run's hub traffic streams out live over
Server-Sent Events.

Endpoints (all GET, all JSON unless noted):

``/``
    Service index: endpoint list + record count.
``/runs``
    Registry listing (:func:`repro.obs.registry.list_payload` — the
    same serialization as ``repro runs list --json``).
``/runs/<key>``
    One full record (``rec_id`` exact match or run-id substring,
    latest wins — the CLI's resolution rules).
``/runs/<key>/gauges[?metric=<filter>]``
    The record's gauge timelines (``metric`` filters by substring with
    ``.``/``_`` folding, like ``repro runs gauges --metric``).
``/runs/<key>/wide``
    The run's wide-event records, read from the registry's wide-event
    directory (``<registry>/wide/*.jsonl`` — where ``repro demo
    --emit-wide`` writes by default).
``/runs/<key>/explain?base=<key>``
    Root-cause attribution of this run's movement from ``base``
    (:func:`repro.obs.explain.why_payload` — the same serialization
    as ``repro runs why --json``).  Needs both runs' wide events in
    the wide-event directory.
``/diff?a=<key>&b=<key>[&threshold=<frac>]``
    Metric diff between two records
    (:func:`repro.obs.registry.diff_payload`); ``threshold`` is a
    fraction in [0, 1), anything else is a 400.  Responds **409** when
    a gain-family metric regressed past the paper-shape threshold, so
    ``curl -f`` (and therefore CI) fails exactly when the paper shape
    broke; 200 otherwise.
``/slo[?run=<key>&...][&slo=<spec>&...]``
    SLO check over registry records (:mod:`repro.obs.slo` — the same
    serialization as ``repro slo check --json``).  ``run`` keys
    restrict the set (default: every record); ``slo`` specs override
    the paper-shape default set.  Responds **409** when any SLO is
    violated, mirroring the ``repro slo check`` exit code.

Malformed input (missing/blank keys, unparseable numbers or SLO
specs) always yields a **400** with a JSON ``{"error": ...}`` body,
and unexpected handler failures a JSON **500** — never an HTML
traceback page.
``/live``
    ``text/event-stream`` of hub traffic (SSE).  Each hub item becomes
    one ``event: <topic>`` / ``data: <json>`` frame; idle periods emit
    ``: keep-alive`` comments; hub close sends ``event: end`` and
    closes the stream.  503 when the server has no hub (nothing live
    to stream).

The server is :class:`~http.server.ThreadingHTTPServer`-based — each
request gets a thread, so a slow ``/live`` consumer never blocks
``/runs`` queries, and a hub-fed simulation is never blocked by either
(the hub drops to slow subscribers instead; see
:mod:`repro.obs.stream`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.explain import (
    NoWideEvents,
    explain_registry_pair,
    load_wide_for_run,
    why_payload,
)
from repro.obs.registry import (
    GAIN_REGRESSION_THRESHOLD,
    RecordNotFound,
    RunRegistry,
    diff_payload,
    diff_records,
    list_payload,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    check_payload,
    check_registry,
    parse_slos,
)
from repro.obs.stream import TelemetryHub

#: Seconds a ``/live`` stream waits for traffic before emitting a
#: keep-alive comment frame.
SSE_KEEPALIVE = 1.0


def sse_format(topic: str, payload: dict) -> bytes:
    """One SSE frame: ``event: <topic>`` + canonical-JSON ``data``.

    Keys are sorted, except a ``gauge`` frame's readings: a tick lists
    them in tick (registration) order, as the in-process hub item does.
    """
    if topic == "gauge":
        data = json.dumps(dict(sorted(payload.items())), separators=(",", ":"))
    else:
        data = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return f"event: {topic}\ndata: {data}\n\n".encode("utf-8")


class TelemetryServer(ThreadingHTTPServer):
    """The HTTP service: registry + optional hub + wide-event directory."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        registry: RunRegistry,
        hub: Optional[TelemetryHub] = None,
        wide_dir: Optional[str] = None,
    ) -> None:
        super().__init__(address, TelemetryRequestHandler)
        self.registry = registry
        self.hub = hub
        #: Where ``/runs/<key>/wide`` looks for wide-event JSONL files.
        self.wide_dir = wide_dir or registry.wide_dir

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns the (started) thread."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        thread.start()
        return thread


class TelemetryRequestHandler(BaseHTTPRequestHandler):
    """Routes requests against the owning :class:`TelemetryServer`."""

    server: TelemetryServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep the service quiet; tests and CI read stdout

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        body = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            url = urlparse(self.path)
            # keep_blank_values: "?metric=" must reach the blank-input
            # validation (400), not silently vanish from the query.
            query = parse_qs(url.query, keep_blank_values=True)
            parts = [p for p in url.path.split("/") if p]
            if not parts:
                self._index()
            elif parts == ["healthz"]:
                self._send_json({"ok": True})
            elif parts == ["runs"]:
                self._send_json(list_payload(self.server.registry))
            elif parts[0] == "runs" and len(parts) == 2:
                self._send_json(self.server.registry.find(parts[1]).to_json())
            elif parts[0] == "runs" and len(parts) == 3:
                self._run_sub(parts[1], parts[2], query)
            elif parts == ["diff"]:
                self._diff(query)
            elif parts == ["slo"]:
                self._slo(query)
            elif parts == ["live"]:
                self._live()
            else:
                self._error(404, f"no route for {url.path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - JSON, not a traceback page
            # The query layer raises the first two with the facts; this
            # door words them as 404 bodies (`main` as exit messages).
            if isinstance(exc, RecordNotFound):
                answer = 404, f"no registry record matches {exc.key!r}"
            elif isinstance(exc, NoWideEvents):
                answer = 404, (f"no wide events for {exc.run_id!r} under "
                               f"{exc.directory}")
            else:
                answer = 500, f"{type(exc).__name__}: {exc}"
            try:
                self._error(*answer)
            except (BrokenPipeError, ConnectionResetError):
                pass

    # -- endpoints -----------------------------------------------------------

    def _index(self) -> None:
        self._send_json({
            "service": "repro-telemetry",
            "endpoints": [
                "/runs", "/runs/<key>", "/runs/<key>/gauges",
                "/runs/<key>/wide", "/runs/<key>/explain?base=<key>",
                "/diff?a=<key>&b=<key>", "/slo", "/live", "/healthz",
            ],
            "records": len(self.server.registry.records()),
            "live": self.server.hub is not None,
        })

    def _run_sub(self, key: str, sub: str, query: dict) -> None:
        record = self.server.registry.find(key)
        if sub == "gauges":
            metric = query.get("metric", [None])[0]
            if metric is not None and not metric.strip():
                self._error(400, "metric filter must be non-empty")
                return
            series = record.gauge_series(metric)
            if metric and not series:
                have = ", ".join(sorted(record.gauges)) or "none"
                self._error(
                    400,
                    f"no gauge matches {metric!r} (recorded: {have})",
                )
                return
            self._send_json({"rec_id": record.rec_id, "gauges": series})
        elif sub == "wide":
            self._send_json({
                "run": record.run_id,
                "wide_dir": self.server.wide_dir,
                "records": load_wide_for_run(
                    self.server.wide_dir, record.run_id
                ),
            })
        elif sub == "explain":
            base_key = query.get("base", [None])[0]
            if not base_key:
                self._error(
                    400, "explain needs ?base=<key> (the baseline run)"
                )
                return
            self._send_json(why_payload(explain_registry_pair(
                self.server.registry, base_key, key,
                wide_dir=self.server.wide_dir,
            )))
        else:
            self._error(404, f"no route for /runs/<key>/{sub}")

    def _diff(self, query: dict) -> None:
        key_a = query.get("a", [None])[0]
        key_b = query.get("b", [None])[0]
        if not key_a or not key_b:
            self._error(400, "diff needs ?a=<key>&b=<key>")
            return
        record_a = self.server.registry.find(key_a)
        record_b = self.server.registry.find(key_b)
        try:
            threshold = float(
                query.get("threshold", [GAIN_REGRESSION_THRESHOLD])[0]
            )
        except ValueError:
            self._error(400, "threshold must be a number")
            return
        # A nan or inf threshold would switch the 409 gate off and a
        # negative one flag every gain; nan fails both comparisons here.
        if not 0 <= threshold < 1:
            self._error(400, "threshold must be a fraction in [0, 1)")
            return
        payload = diff_payload(record_a, record_b, diff_records(
            record_a, record_b, gain_threshold=threshold
        ))
        # Non-2xx on paper-shape regression: `curl -f $URL/diff?...`
        # is the whole CI gate.
        status = 409 if payload["regressions"] else 200
        self._send_json(payload, status=status)

    def _slo(self, query: dict) -> None:
        specs = [s for s in query.get("slo", []) if s.strip()]
        try:
            slos = parse_slos(specs) if specs else DEFAULT_SLOS
        except ValueError as exc:
            self._error(400, str(exc))
            return
        keys = [k for k in query.get("run", []) if k.strip()]
        payload = check_payload(check_registry(
            self.server.registry, slos, keys, self.server.wide_dir
        ))
        payload["slos"] = [slo.spec() for slo in slos]
        # Mirror `repro slo check`'s exit code: `curl -f $URL/slo` is
        # the CI gate.
        status = 409 if payload["violations"] else 200
        self._send_json(payload, status=status)

    def _live(self) -> None:
        hub = self.server.hub
        if hub is None:
            self._error(503, "no live run attached (serve without a hub)")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        sub = hub.subscribe()
        try:
            self.wfile.write(sse_format("hello", {"live": True}))
            self.wfile.flush()
            while True:
                item = sub.get(timeout=SSE_KEEPALIVE)
                if item is not None:
                    topic, payload = item
                    self.wfile.write(sse_format(topic, payload))
                elif sub.closed:
                    self.wfile.write(sse_format("end", hub.stats()))
                    self.wfile.flush()
                    return
                else:
                    self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the hub keeps running
        finally:
            sub.close()


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[RunRegistry] = None,
    hub: Optional[TelemetryHub] = None,
    wide_dir: Optional[str] = None,
) -> TelemetryServer:
    """Bind a :class:`TelemetryServer` (``port=0`` picks a free port)."""
    return TelemetryServer(
        (host, port),
        registry if registry is not None else RunRegistry(),
        hub=hub,
        wide_dir=wide_dir,
    )
