"""The persistent run registry: every run leaves a comparable record.

A registry is one append-only JSONL file (``.repro_runs/registry.jsonl``
by default, ``REPRO_RUNS_DIR`` overrides the directory) where demos,
sweeps and benches deposit a summary record — run identity, git SHA,
machine fingerprint (shared with :mod:`repro.perf`), headline metrics
and (when the flight recorder ran) the sampled gauge timelines.  The
``python -m repro runs`` CLI lists, renders and diffs records, flagging
paper-shape regressions (Fig. 6/7 gain ratios) between any two runs.

Record schema (one JSON object per line)::

    {"rec_id": "0003/demo-seed0", "run_id": "demo-seed0",
     "kind": "demo", "recorded_at": "...", "git_sha": "...",
     "machine": "linux-x86_64-...", "metrics": {"gain": 1.8, ...},
     "gauges": {"staging.lead_bytes": {"t": [...], "v": [...]}, ...},
     "sketches": {"wide.fetch_latency": {"kind": "quantile", ...}, ...},
     "meta": {...}}

Forward compatibility mirrors the trace reader: unknown top-level keys
are preserved on load, and records missing optional keys get empty
defaults, so old registries keep loading as the schema grows.
"""

from __future__ import annotations

import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import perf
from repro.obs import jsonl

REGISTRY_FILE = "registry.jsonl"

#: Relative drop in a ``gain``-family metric that counts as a
#: paper-shape regression in :func:`diff_records`.
GAIN_REGRESSION_THRESHOLD = 0.15

_git_sha_cache: Optional[str] = None

#: Gauge-name filters treat ``.`` and ``_`` as the same separator.
_FOLD = str.maketrans("._", "--")


def _fold(name: str) -> str:
    return name.translate(_FOLD)


def git_sha() -> str:
    """The current commit SHA (cached; ``"unknown"`` outside a repo)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _git_sha_cache = "unknown"
    return _git_sha_cache


#: A registry line's keys in written order: the text ones with the
#: default a line lacking them loads with, then the dict ones.
_TEXT_KEYS = {
    "rec_id": "", "run_id": "", "kind": "run", "recorded_at": "",
    "git_sha": "unknown", "machine": "", "policy": "",
}
_DICT_KEYS = ("metrics", "gauges", "sketches", "meta")
_LINE_KEYS = (*_TEXT_KEYS, *_DICT_KEYS)


@dataclass
class RunRecord:
    """One registry line, parsed."""

    rec_id: str
    run_id: str
    kind: str
    recorded_at: str
    git_sha: str
    machine: str
    #: Staging policy that produced the run ("" = system default —
    #: pre-policy-framework records load with this default).
    policy: str = ""
    metrics: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    #: Serialized per-phase sketches (see :mod:`repro.obs.sketch`):
    #: ``{name: sketch.to_json()}``, one value per chunk and phase.
    sketches: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    #: Top-level keys written by a newer version, preserved verbatim.
    extra: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_json(cls, payload: dict) -> "RunRecord":
        return cls(
            **{key: str(payload.get(key, default))
               for key, default in _TEXT_KEYS.items()},
            # A null loads as the empty default, like a missing key.
            **{key: dict(payload.get(key) or {}) for key in _DICT_KEYS},
            extra={key: value for key, value in payload.items()
                   if key not in _LINE_KEYS},
        )

    def to_json(self) -> dict:
        return {
            **self.extra, **{key: getattr(self, key) for key in _LINE_KEYS},
        }

    def gauge_series(self, metric: Optional[str]) -> dict[str, list]:
        """Gauge timelines whose name contains ``metric`` (substring;
        none = every timeline).

        ``.`` and ``_`` are interchangeable in the filter, so
        ``cache_occupancy`` matches ``cache.occupancy_bytes.*``.
        """
        if not metric:
            return self.gauges
        wanted = _fold(metric)
        return {
            name: series
            for name, series in self.gauges.items()
            if wanted in _fold(name)
        }


class RecordNotFound(KeyError):
    """No registry record matches a key; carries what a front door
    needs to word that its own way."""

    def __init__(self, key: str, records: int, path: str) -> None:
        super().__init__(
            f"no registry record matches {key!r} "
            f"({records} records in {path})"
        )
        self.key = key
        self.records = records
        self.path = path


class RunRegistry:
    """Append/load/diff interface over one registry JSONL file."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = jsonl.runs_dir(directory)
        self.path = os.path.join(self.directory, REGISTRY_FILE)

    @property
    def wide_dir(self) -> str:
        """Where this registry's runs keep their wide-event files."""
        return os.path.join(self.directory, "wide")

    # -- writing -------------------------------------------------------------

    def append(
        self,
        run_id: str,
        kind: str,
        metrics: dict,
        gauges: Optional[dict] = None,
        meta: Optional[dict] = None,
        policy: str = "",
        sketches: Optional[dict] = None,
    ) -> RunRecord:
        """Append one record; assigns a unique ``rec_id`` (its sequence
        number is read and the line written under one lock, see
        :func:`repro.obs.jsonl.append`) and returns it."""
        return jsonl.append(self.path, lambda count: RunRecord(
            rec_id=f"{count + 1:04d}/{run_id}",
            run_id=run_id,
            kind=kind,
            recorded_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            git_sha=git_sha(),
            machine=perf.fingerprint(),
            policy=policy,
            metrics=dict(metrics),
            gauges=dict(gauges or {}),
            sketches=dict(sketches or {}),
            meta=dict(meta or {}),
        ))

    # -- reading -------------------------------------------------------------

    def records(self) -> list[RunRecord]:
        return jsonl.read_log(self.path, RunRecord.from_json)

    def find(self, key: str) -> RunRecord:
        """Resolve ``key`` to one record.

        In this order: the record whose ``rec_id`` is ``key``; the
        *latest* record whose ``run_id`` is ``key`` (so ``xftp-seed1``
        is not shadowed by a later ``xftp-seed10``); the *latest* record
        whose ``run_id`` (or rec_id) contains ``key``.  Raises
        :class:`RecordNotFound` (a :class:`KeyError`) when nothing
        matches.
        """
        records = self.records()
        for record in records:
            if record.rec_id == key:
                return record
        matches = [record for record in records if record.run_id == key]
        matches = matches or [
            record for record in records
            if key in record.run_id or key in record.rec_id
        ]
        if not matches:
            raise RecordNotFound(key, len(records), self.path)
        return matches[-1]


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDelta:
    """One shared metric compared across two records."""

    name: str
    value_a: float
    value_b: float
    #: B relative to A (``None`` when A is zero).
    ratio: Optional[float]
    #: True when this is a gain-family metric that regressed past the
    #: paper-shape threshold.
    regression: bool


def diff_records(
    a: RunRecord,
    b: RunRecord,
    gain_threshold: float = GAIN_REGRESSION_THRESHOLD,
) -> list[MetricDelta]:
    """Compare the numeric metrics two records share, A → B.

    Metrics whose name contains ``gain`` carry the paper's headline
    shape (Fig. 6/7 Xftp-over-SoftStage ratios): when B falls more
    than ``gain_threshold`` below A, the delta is flagged as a
    regression.  Everything else is informational.
    """
    deltas: list[MetricDelta] = []
    for name in sorted(set(a.metrics) & set(b.metrics)):
        va, vb = a.metrics[name], b.metrics[name]
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        ratio = vb / va if va else None
        regression = (
            "gain" in name
            and ratio is not None
            and ratio < 1.0 - gain_threshold
        )
        deltas.append(
            MetricDelta(
                name=name,
                value_a=float(va),
                value_b=float(vb),
                ratio=ratio,
                regression=regression,
            )
        )
    return deltas


def regressions(deltas: list[MetricDelta]) -> list[MetricDelta]:
    return [delta for delta in deltas if delta.regression]


# ---------------------------------------------------------------------------
# JSON payloads (shared by ``repro runs --json`` and the HTTP service)
# ---------------------------------------------------------------------------


def record_summary(record: RunRecord) -> dict:
    """The light listing shape: identity + metrics, gauge *names* only.

    One serialization path for ``repro runs list --json`` and the
    service's ``GET /runs``, so CI scripts never scrape table text.
    """
    return {
        **{key: getattr(record, key) for key in _LINE_KEYS},
        "gauges": sorted(record.gauges),
        "sketches": sorted(record.sketches),
    }


def list_payload(registry: "RunRegistry") -> dict:
    """``{"registry": path, "records": [summary, ...]}``."""
    return {
        "registry": registry.path,
        "records": [record_summary(r) for r in registry.records()],
    }


def diff_payload(a: RunRecord, b: RunRecord, deltas: list[MetricDelta]) -> dict:
    """The diff in JSON shape, regressions called out separately.

    Shared by ``repro runs diff --json`` and ``GET /diff`` so the CI
    regression gate and the CLI agree byte-for-byte on what regressed.
    """
    return {
        "a": a.rec_id,
        "b": b.rec_id,
        "deltas": [
            {
                "name": d.name,
                "a": d.value_a,
                "b": d.value_b,
                "ratio": d.ratio,
                "regression": d.regression,
            }
            for d in deltas
        ],
        "regressions": [d.name for d in deltas if d.regression],
    }


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------


def record_from_result(result) -> tuple[str, dict, dict]:
    """(run_id, metrics, gauges) for one ExperimentResult.

    Gauge timelines come out of the result's collector under the
    ``gauge.<run_id>.`` namespace and are stored stripped of it, as
    ``{name: {"t": [...], "v": [...]}}`` (compact JSONL columns).
    Serialized sketches (when the run was built with ``sketches=True``)
    are fetched separately via :func:`sketches_from_result`.
    """
    metrics = {
        "download_time": result.download_time,
        "throughput_bps": result.throughput_bps,
        **result.download.counters(),
    }
    gauges: dict[str, dict] = {}
    if result.metrics is not None:
        prefix = f"gauge.{result.run_id}."
        for name, points in result.metrics.timelines(prefix).items():
            gauges[name[len(prefix):]] = {
                "t": [t for t, _ in points], "v": [v for _, v in points],
            }
    return result.run_id, metrics, gauges


def sketches_from_result(result) -> dict:
    """The result's serialized sketch set (``{}`` when not recorded)."""
    recorder = getattr(result, "sketches", None)
    return recorder.to_json() if recorder is not None else {}
