"""The SLO engine: declarative objectives, continuously judged.

The observability stack below this module *records*; this module
*judges*.  An :class:`SLO` is one declarative objective over the
reproduction's telemetry — the paper's headline shape (``gain >= 1.2``),
a staging-pipeline latency bound (``p95(stage_latency) <= 2.0``), a
staging-effectiveness floor (``ready_before_fetch_ratio >= 0.6``) —
written as a one-line spec and evaluated two ways:

**offline** (:func:`evaluate_record`, ``python -m repro slo check``,
``GET /slo``)
    against :class:`~repro.obs.registry.RunRecord` metrics, the
    record's serialized :mod:`~repro.obs.sketch` set, its recorded gauge
    timelines, and/or a run's wide-event records;

**live** (:class:`LiveSLOEvaluator`)
    as a :class:`~repro.obs.stream.TelemetryHub` subscriber folding
    gauge samples and wide events into per-SLO sliding windows (sim
    time) and computing **burn rates** — the fraction of the window's
    observations in violation.  When an SLO transitions into
    violation an :class:`AlertRecord` is appended to the registry
    directory's ``alerts.jsonl`` (:class:`AlertLog`) and published on
    the hub under the ``alert`` topic, where the dashboard's alerts
    pane picks it up.

The live evaluator is *only* a hub subscriber: it shares the hub's
never-block contract, so a fixed-seed run produces bit-identical
results with or without it attached (asserted under the strict
invariant auditor by the tests).

Spec grammar::

    [agg(]metric[)] (<=|>=) threshold [@ window_s]

    gain >= 1.2
    p95(stage_latency) <= 2.0
    mean(fetch_latency) <= 10 @ 60
    ready_before_fetch_ratio >= 0.6

``agg`` ∈ p50 / p90 / p95 / p99 / mean / max / min; a bare metric is
the latest/recorded value.  ``@ window`` sets the live sliding window
in simulated seconds (default ``DEFAULT_WINDOW_S``); offline
evaluation ignores it (the whole run is the window).  A gauge is judged
from one store in both modes — its samples — with the same exact
aggregation (:func:`_window_agg`): live over the window, offline over
the timeline the run recorded, so a bare gauge is its last sample.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Optional, Sequence

from repro.obs import jsonl
from repro.obs.explain import load_wide_for_run
from repro.obs.sketch import load_sketches, sketches_from_wide
from repro.util import render_table

#: Default live sliding window, in simulated seconds.
DEFAULT_WINDOW_S = 30.0

#: Alert JSONL file name inside the registry directory.
ALERTS_FILE = "alerts.jsonl"

#: Samples kept per live window regardless of time span (safety cap so
#: a pathological gauge cannot grow a window unboundedly).
MAX_WINDOW_SAMPLES = 4096

_AGGS = ("p50", "p90", "p95", "p99", "mean", "max", "min")

_SPEC_RE = re.compile(
    r"^\s*(?:(?P<agg>p50|p90|p95|p99|mean|max|min)\s*\(\s*(?P<inner>[^)]+?)"
    r"\s*\)|(?P<bare>[A-Za-z0-9_.\-]+))\s*(?P<op><=|>=)\s*"
    r"(?P<threshold>[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
    r"\s*(?:@\s*(?P<window>[0-9]*\.?[0-9]+)\s*s?)?\s*$"
)


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a metric stream."""

    #: The quantity being judged — a registry metric name (``gain``),
    #: a wide-event chunk field (``fetch_latency``, ``stage_wait_s``),
    #: a gauge name (``staging.lead_bytes``) or the derived
    #: ``ready_before_fetch_ratio``.
    metric: str
    #: How the window/run collapses to one value: ``value`` (latest /
    #: as-recorded) or one of p50/p90/p95/p99/mean/max/min.
    agg: str
    #: ``">="`` (floor) or ``"<="`` (ceiling).
    op: str
    threshold: float
    #: Live sliding window, simulated seconds.
    window_s: float = DEFAULT_WINDOW_S
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in (">=", "<="):
            raise ValueError(f"SLO op must be >= or <=, got {self.op!r}")
        if self.agg != "value" and self.agg not in _AGGS:
            raise ValueError(f"unknown SLO aggregation {self.agg!r}")
        if not self.name:
            object.__setattr__(self, "name", self.spec())

    def spec(self) -> str:
        """The canonical one-line form (parses back to an equal SLO)."""
        metric = (
            self.metric if self.agg == "value"
            else f"{self.agg}({self.metric})"
        )
        suffix = (
            "" if self.window_s == DEFAULT_WINDOW_S
            else f" @ {_number(self.window_s)}"
        )
        return f"{metric} {self.op} {_number(self.threshold)}{suffix}"

    def ok(self, value: float) -> bool:
        return value >= self.threshold if self.op == ">=" \
            else value <= self.threshold


def _number(x: float) -> str:
    """``x`` in its short ``:g`` form when that is exact, else its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def parse_slo(spec: str) -> SLO:
    """Parse one spec line (see the module docstring for the grammar)."""
    match = _SPEC_RE.match(spec)
    if match is None:
        raise ValueError(
            f"unparseable SLO spec {spec!r} (expected e.g. 'gain >= 1.2' "
            f"or 'p95(stage_latency) <= 2.0 [@ 30]')"
        )
    agg = match.group("agg") or "value"
    metric = match.group("inner") or match.group("bare")
    window = match.group("window")
    return SLO(
        metric=metric,
        agg=agg,
        op=match.group("op"),
        threshold=float(match.group("threshold")),
        window_s=float(window) if window is not None else DEFAULT_WINDOW_S,
    )


def parse_slos(specs: Iterable[str]) -> tuple[SLO, ...]:
    return tuple(parse_slo(spec) for spec in specs)


#: The paper-shape objective set for the Fig. 6 demo family (thresholds
#: calibrated against the healthy fixed-seed 16 MB demo; see
#: EXPERIMENTS.md "Paper-shape SLOs").  ``gain`` is the headline
#: latency objective; the staging-pipeline bounds encode the
#: freshness/latency trade-off framing from the related ICVN work.
DEFAULT_SLOS: tuple[SLO, ...] = parse_slos((
    "gain >= 1.2",
    "p95(stage_latency) <= 2.0",
    "p95(fetch_latency) <= 30.0",
    "ready_before_fetch_ratio >= 0.6",
))


# ---------------------------------------------------------------------------
# Offline evaluation: registry records and wide-event files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLOResult:
    """One SLO judged against one data source."""

    slo: SLO
    #: The observed value (``None`` = the source had no data for it).
    value: Optional[float]
    #: True/False verdict; ``None`` when there was no data to judge.
    ok: Optional[bool]
    #: Where the value came from: ``metrics`` / ``sketch`` / ``gauges``.
    source: str = ""

    @property
    def status(self) -> str:
        if self.ok is None:
            return "no-data"
        return "pass" if self.ok else "FAIL"

    def to_json(self) -> dict:
        return {
            "slo": self.slo.spec(),
            "metric": self.slo.metric,
            "agg": self.slo.agg,
            "threshold": self.slo.threshold,
            "value": self.value,
            "status": self.status,
        }


def _agg_sketch(sketch, agg: str) -> Optional[float]:
    """Collapse one sketch to one value under ``agg`` (None = can't);
    a bare metric reads the sketch's p50."""
    if not sketch.count:
        return None
    if agg == "mean":
        return sketch.mean
    if agg == "max":
        return sketch.maximum
    if agg == "min":
        return sketch.minimum
    return sketch.quantile(0.5 if agg == "value" else int(agg[1:]) / 100.0)


def resolve_value(
    slo: SLO,
    metrics: Optional[dict] = None,
    sketches: Optional[dict] = None,
    gauges: Optional[dict] = None,
) -> tuple[Optional[float], str]:
    """``(value, source)`` for one SLO against metrics, sketches and
    recorded gauge timelines (``{name: {"t": [...], "v": [...]}}``).

    ``ready_before_fetch_ratio`` is the one derived metric: the mean
    of the ``wide.ready_before_fetch`` indicator sketch the
    :class:`~repro.obs.sketch.SketchRecorder` folds per chunk.  Other
    names resolve, in order, to a numeric metric (bare specs only), the
    first sketch named ``<metric>`` or ``wide.<metric>`` that can answer
    ``agg``, and the gauge timeline ``<metric>``, aggregated exactly as
    the live evaluator aggregates its window.
    """
    metrics = metrics or {}
    sketches = sketches or {}
    if slo.metric == "ready_before_fetch_ratio":
        sketch = sketches.get("wide.ready_before_fetch")
        if sketch is not None and sketch.count:
            return sketch.mean, "sketch"
        return None, ""
    if slo.agg == "value":
        value = metrics.get(slo.metric)
        if isinstance(value, (int, float)):
            return float(value), "metrics"
    for name in (slo.metric, f"wide.{slo.metric}"):
        sketch = sketches.get(name)
        value = None if sketch is None else _agg_sketch(sketch, slo.agg)
        if value is not None:
            return value, "sketch"
    series = (gauges or {}).get(slo.metric)
    values = series.get("v") if isinstance(series, dict) else None
    if isinstance(values, list) and all(
        isinstance(v, (int, float)) for v in values
    ):
        value = _window_agg(values, slo.agg)
        if value is not None:
            return value, "gauges"
    return None, ""


def evaluate_slos(
    slos: Sequence[SLO],
    metrics: Optional[dict] = None,
    sketches: Optional[dict] = None,
    wide_records: Optional[Iterable[dict]] = None,
    gauges: Optional[dict] = None,
) -> list[SLOResult]:
    """Judge every SLO against the given sources.

    ``wide_records`` (if given) are folded into sketches on the fly
    and take precedence over same-named serialized sketches — the
    ``repro slo check`` path over ``--emit-wide`` files.
    """
    merged = dict(sketches or {})
    if wide_records is not None:
        merged.update(sketches_from_wide(wide_records))
    results = []
    for slo in slos:
        value, source = resolve_value(slo, metrics, merged, gauges)
        results.append(SLOResult(
            slo=slo,
            value=value,
            ok=slo.ok(value) if value is not None else None,
            source=source,
        ))
    return results


def evaluate_record(
    slos: Sequence[SLO],
    record,
    wide_records: Optional[Iterable[dict]] = None,
) -> list[SLOResult]:
    """Judge ``slos`` against one :class:`~repro.obs.registry.RunRecord`:
    its metrics, its sketches and its gauge timelines."""
    return evaluate_slos(
        slos,
        metrics=record.metrics,
        sketches=load_sketches(record.sketches),
        wide_records=wide_records,
        gauges=record.gauges,
    )


def violations(results: Iterable[SLOResult]) -> list[SLOResult]:
    return [r for r in results if r.ok is False]


def check_registry(
    registry,
    slos: Sequence[SLO],
    keys: Sequence[str] = (),
    wide_dir: Optional[str] = None,
) -> list[tuple[str, list[SLOResult]]]:
    """The one answer behind ``repro slo check`` and ``GET /slo``:
    ``[(rec_id, results)]`` in registry order.

    Judges the records ``keys`` resolve to (``registry.find`` raises
    for an unknown one; none = every record), each with its wide events
    from ``wide_dir`` (default ``<registry>/wide``) if it has any.
    """
    records = (
        [registry.find(key) for key in keys] if keys else registry.records()
    )
    directory = wide_dir or registry.wide_dir
    per_record = []
    for record in records:
        wide = load_wide_for_run(directory, record.run_id) or None
        per_record.append(
            (record.rec_id, evaluate_record(slos, record, wide_records=wide))
        )
    return per_record


# ---------------------------------------------------------------------------
# Alerts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlertRecord:
    """One SLO violation, ready for the alert log and the hub."""

    slo: str              #: canonical spec string
    run: str              #: run id (or rec id) being judged
    value: float
    threshold: float
    #: Simulated time of the judgment (0.0 for whole-run offline checks).
    t: float = 0.0
    #: ``burn`` (live sliding window) or ``violation`` (offline).
    kind: str = "violation"
    #: Fraction of the window's observations in violation (live only).
    burn_rate: float = 1.0
    window_s: float = 0.0
    source: str = "offline"

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "AlertRecord":
        return cls(**{
            f.name: payload[f.name] for f in fields(cls) if f.name in payload
        })

    def describe(self) -> str:
        head = f"[{self.kind}] {self.run}: {self.slo}"
        detail = f"observed {self.value:g}"
        if self.kind == "burn":
            detail += (f", burn {self.burn_rate:.0%} over "
                       f"{self.window_s:g}s @ t={self.t:g}s")
        return f"{head} ({detail})"


class AlertLog:
    """Append-only ``alerts.jsonl`` beside the run registry."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = jsonl.runs_dir(directory)
        self.path = os.path.join(self.directory, ALERTS_FILE)

    def append(self, alert: AlertRecord) -> None:
        jsonl.append(self.path, lambda _count: alert)

    def read(self) -> list[AlertRecord]:
        return jsonl.read_log(self.path, AlertRecord.from_json)


# ---------------------------------------------------------------------------
# Live evaluation: a telemetry-hub subscriber with sliding windows
# ---------------------------------------------------------------------------


class LiveSLOEvaluator:
    """Judges SLOs continuously over live hub traffic.

    A pure fold like the dashboard: :meth:`feed` consumes one
    ``(topic, payload)`` hub item, updates the matching SLOs' sliding
    windows (keyed by *simulated* time, so replayed traffic judges
    identically), and fires an :class:`AlertRecord` on every
    ok→violating transition.  Alerts go to ``sinks`` — the
    :class:`AlertLog` and a hub ``alert`` publish, wired up by
    :meth:`start`.

    Window sample sources, per SLO metric:

    - **gauge items** whose ``gauge`` name equals the metric;
    - **wide chunk records** carrying the metric as a numeric field
      (``fetch_latency``, ``stage_wait_s``, ...), stamped at
      ``t_fetched``; the derived ``ready_before_fetch_ratio`` folds
      the staged-before-fetch indicator;
    - **run-finished items** carrying the metric directly
      (``download_time``, ``gain`` when a driver publishes it) —
      judged immediately, no window.

    The evaluator never touches the simulation: it observes the hub's
    bounded queues only, so attaching it cannot perturb a fixed-seed
    run (asserted under the strict invariant auditor).
    """

    def __init__(self, slos: Sequence[SLO] = DEFAULT_SLOS) -> None:
        self.slos = tuple(slos)
        self.sinks: list[Callable[[AlertRecord], None]] = []
        self.alerts: list[AlertRecord] = []
        self.items_seen = 0
        self._windows: dict[str, deque] = {
            slo.name: deque(maxlen=MAX_WINDOW_SAMPLES) for slo in self.slos
        }
        self._violating: dict[str, bool] = {}
        self._run = ""
        self._subscription = None
        self._thread = None

    # -- judging -------------------------------------------------------------

    def _fire(self, slo: SLO, t: float, value: float,
              burn_rate: float) -> None:
        alert = AlertRecord(
            slo=slo.spec(), run=self._run, value=value,
            threshold=slo.threshold, t=t, kind="burn",
            burn_rate=burn_rate, window_s=slo.window_s, source="live",
        )
        self.alerts.append(alert)
        for sink in self.sinks:
            sink(alert)

    def _observe(self, slo: SLO, t: float, value: float) -> None:
        window = self._windows[slo.name]
        window.append((t, value))
        while window and window[0][0] < t - slo.window_s:
            window.popleft()
        values = [v for _t, v in window]
        current = _window_agg(values, slo.agg)
        if current is None:
            return
        bad = sum(1 for v in values if not slo.ok(v))
        burn_rate = bad / len(values)
        violating = not slo.ok(current)
        was = self._violating.get(slo.name, False)
        self._violating[slo.name] = violating
        if violating and not was:
            self._fire(slo, t, current, burn_rate)

    def feed(self, topic: str, payload: dict) -> None:
        self.items_seen += 1
        run = payload.get("run")
        if run:
            if run != self._run:
                # New run: fresh windows and states, like the wide
                # builder's per-run books.
                self._run = run
                for window in self._windows.values():
                    window.clear()
                self._violating.clear()
        if topic == "gauge":
            t = payload.get("t", 0.0)
            for name, value in payload.get("gauges", {}).items():
                if not isinstance(value, (int, float)):
                    continue
                for slo in self.slos:
                    if slo.metric == name:
                        self._observe(slo, t, float(value))
        elif topic == "wide":
            if payload.get("kind") != "chunk":
                return
            t = payload.get("t_fetched", 0.0)
            for slo in self.slos:
                if slo.metric == "ready_before_fetch_ratio":
                    ready_wait = payload.get("ready_wait_s")
                    staged = (
                        isinstance(ready_wait, (int, float))
                        and ready_wait >= 0.0
                    )
                    self._observe(slo, t, 1.0 if staged else 0.0)
                    continue
                value = payload.get(slo.metric)
                if isinstance(value, (int, float)):
                    self._observe(slo, t, float(value))
        elif topic == "run" and payload.get("state") == "finished":
            for slo in self.slos:
                value = payload.get(slo.metric)
                if isinstance(value, (int, float)) and not slo.ok(value):
                    self._fire(
                        slo, payload.get("download_time", 0.0),
                        float(value), 1.0,
                    )

    # -- hub wiring ----------------------------------------------------------

    def start(self, hub, alert_log: Optional[AlertLog] = None):
        """Subscribe to ``hub`` and judge on a daemon thread.

        Alerts are appended to ``alert_log`` (when given) and
        published back onto the hub under the ``alert`` topic (the
        evaluator's own subscription filters it out, so it never
        consumes its own alerts).  Returns ``self``.
        """
        if alert_log is not None:
            self.sinks.append(alert_log.append)
        self.sinks.append(
            lambda alert: hub.publish("alert", alert.to_json())
        )
        self._subscription = hub.subscribe(
            topics={"gauge", "wide", "run"}
        )
        def _pump() -> None:
            try:
                for topic, payload in self._subscription:
                    self.feed(topic, payload)
            finally:
                # Detach so shutdown's hub.wait_closed() sees an
                # empty subscriber list once the pump drains.
                self._subscription.close()

        self._thread = threading.Thread(
            target=_pump, name="repro-slo-live", daemon=True,
        )
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the pump thread to drain a closed hub."""
        if self._thread is not None:
            self._thread.join(timeout)


def _window_agg(values: list, agg: str) -> Optional[float]:
    """Exact aggregation over a live window or a recorded timeline."""
    if not values:
        return None
    if agg in ("value",):
        return values[-1]
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "max":
        return max(values)
    if agg == "min":
        return min(values)
    if agg.startswith("p"):
        q = int(agg[1:]) / 100.0
        ordered = sorted(values)
        # Nearest rank, matching the sketch's convention.
        index = max(0, min(len(ordered) - 1,
                           math.ceil(q * len(ordered)) - 1))
        return ordered[index]
    return None


# ---------------------------------------------------------------------------
# Reporting (CLI + HTTP share these payload shapes)
# ---------------------------------------------------------------------------


def check_payload(per_record: list[tuple[str, list[SLOResult]]]) -> dict:
    """``repro slo check --json`` / ``GET /slo`` serialization."""
    records = []
    failing = []
    for rec_id, results in per_record:
        records.append({
            "rec_id": rec_id,
            "results": [r.to_json() for r in results],
        })
        failing.extend(
            f"{rec_id}: {r.slo.spec()}" for r in violations(results)
        )
    return {"records": records, "violations": failing}


def render_check(per_record: list[tuple[str, list[SLOResult]]]) -> str:
    """Deterministic plain-text report for ``repro slo check``."""
    rows = []
    for rec_id, results in per_record:
        for result in results:
            rows.append((
                rec_id,
                result.slo.spec(),
                "-" if result.value is None else f"{result.value:.4g}",
                result.status,
            ))
    table = render_table(
        "SLO check", ("record", "slo", "observed", "status"), rows,
    )
    failed = sum(
        1 for _rec, results in per_record for r in violations(results)
    )
    verdict = (
        "all SLOs pass" if failed == 0
        else f"{failed} SLO violation(s)"
    )
    return f"{table}\n{verdict}"
