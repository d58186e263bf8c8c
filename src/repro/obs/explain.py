"""Regression root-cause attribution: *why* did run B regress from A?

``runs diff`` can flag *that* the paper's headline gain moved; this
module explains *where the time went*.  Both runs' wide-event records
(live ``--emit-wide`` files or ``repro trace wide`` replays — byte
identical either way) are folded into a :class:`PhaseProfile`, a
fixed-size decomposition of the download into the phases the paper's
Fig. 3 pipeline defines:

``fetch.edge`` / ``fetch.origin`` / ``fetch.fallback``
    Chunk fetch time, split by serving network — the edge-vs-origin
    mix is the mechanism behind the gain curve.
``stage_stall``
    Time fetches spent blocked waiting for staging to finish
    (``max(0, -ready_wait_s)`` per chunk): the cost of signalling too
    late or staging too slowly.
``gap.unmasked``
    Coverage-gap time *not* masked by staged content
    (``gap_time_s - masked_total_s``): dead air the staging pipeline
    failed to hide.

Profiles subtract phase-by-phase; each :class:`Contributor` carries
its share of the total download-time delta, and the ranked, rendered
report (:func:`render_why`) names the phase that moved the metric.
Everything is plain arithmetic over the records — deterministic, so
the report is byte-identical whether the records came from the live
run or its replayed trace.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.wide import read_wide
from repro.util import render_table

#: Phase keys in report order (ranking reorders by |delta|).
PHASES = (
    "fetch.edge",
    "fetch.origin",
    "fetch.fallback",
    "stage_stall",
    "gap.unmasked",
)

#: Event-count keys carried alongside the time phases.
COUNTERS = (
    "chunks",
    "chunks_edge",
    "chunks_origin",
    "chunks_fallback",
    "re_signals",
    "stage_failures",
    "stale_responses",
    "handoffs_completed",
    "dropped_packets",
)


@dataclass
class PhaseProfile:
    """One run's wide events folded into a fixed phase decomposition."""

    run_id: str = ""
    #: Simulated end of the run (the run-summary record's ``t_end``).
    t_end: float = 0.0
    #: Seconds per phase, keyed by :data:`PHASES`.
    phases: dict = field(default_factory=dict)
    #: Event counts, keyed by :data:`COUNTERS`.
    counters: dict = field(default_factory=dict)
    #: Last serving network seen (edge handoffs shift it).
    network: str = ""

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "PhaseProfile":
        profile = cls(
            phases={name: 0.0 for name in PHASES},
            counters={name: 0 for name in COUNTERS},
        )
        gap_time = 0.0
        masked_total = 0.0
        for record in records:
            kind = record.get("kind")
            if not profile.run_id and record.get("run"):
                profile.run_id = record["run"]
            if kind == "chunk":
                source = record.get("source", "origin")
                latency = record.get("fetch_latency") or 0.0
                profile.phases[f"fetch.{source}"] = (
                    profile.phases.get(f"fetch.{source}", 0.0) + latency
                )
                ready_wait = record.get("ready_wait_s")
                if isinstance(ready_wait, (int, float)) and ready_wait < 0:
                    profile.phases["stage_stall"] += -ready_wait
                profile.counters["chunks"] += 1
                key = f"chunks_{source}"
                if key in profile.counters:
                    profile.counters[key] += 1
                for counter in ("re_signals", "stage_failures",
                                "stale_responses"):
                    profile.counters[counter] += record.get(counter, 0) or 0
            elif kind == "run":
                profile.t_end = record.get("t_end", 0.0) or 0.0
                profile.network = record.get("network", "") or ""
                gap_time = record.get("gap_time_s", 0.0) or 0.0
                masked_total = record.get("masked_total_s", 0.0) or 0.0
                for counter in ("handoffs_completed", "dropped_packets"):
                    profile.counters[counter] = record.get(counter, 0) or 0
        profile.phases["gap.unmasked"] = max(0.0, gap_time - masked_total)
        return profile


@dataclass(frozen=True)
class Contributor:
    """One phase's movement between two runs."""

    name: str
    value_a: float
    value_b: float
    #: Seconds (time phases) or events (counters) B minus A.
    delta: float
    #: This phase's share of the total download-time delta (``None``
    #: when the total didn't move).
    share: Optional[float]


@dataclass
class Explanation:
    """The full A→B attribution, ready to rank and render."""

    run_a: str
    run_b: str
    t_end_a: float
    t_end_b: float
    #: Time phases, ranked by \|delta\| (largest mover first; name
    #: breaks ties so the ranking is total and deterministic).
    contributors: list
    #: Count movements (informational, not time-denominated).
    counters: list
    #: Optional headline metrics carried from the registry records.
    metrics_a: dict = field(default_factory=dict)
    metrics_b: dict = field(default_factory=dict)

    @property
    def time_delta(self) -> float:
        return self.t_end_b - self.t_end_a

    @property
    def verdict(self) -> str:
        """One line naming the largest mover."""
        if not self.contributors or self.time_delta == 0.0:
            return "no download-time movement to attribute"
        top = self.contributors[0]
        if top.delta == 0.0:
            return "no phase moved; delta sits outside the profile"
        direction = "slower" if self.time_delta > 0 else "faster"
        pct = (
            f" ({abs(top.share):.0%} of the change)"
            if top.share is not None else ""
        )
        return (
            f"{self.run_b} is {abs(self.time_delta):.3f}s {direction} "
            f"than {self.run_a}; largest contributor: {top.name} "
            f"{top.delta:+.3f}s{pct}"
        )


def explain(
    records_a: Iterable[dict],
    records_b: Iterable[dict],
    metrics_a: Optional[dict] = None,
    metrics_b: Optional[dict] = None,
    label_a: str = "",
    label_b: str = "",
) -> Explanation:
    """Attribute the A→B download-time delta to pipeline phases."""
    profile_a = PhaseProfile.from_records(records_a)
    profile_b = PhaseProfile.from_records(records_b)
    time_delta = profile_b.t_end - profile_a.t_end
    contributors = []
    for name in PHASES:
        va = profile_a.phases.get(name, 0.0)
        vb = profile_b.phases.get(name, 0.0)
        delta = vb - va
        contributors.append(Contributor(
            name=name, value_a=va, value_b=vb, delta=delta,
            share=(delta / time_delta) if time_delta else None,
        ))
    contributors.sort(key=lambda c: (-abs(c.delta), c.name))
    counters = []
    for name in COUNTERS:
        va = profile_a.counters.get(name, 0)
        vb = profile_b.counters.get(name, 0)
        counters.append(Contributor(
            name=name, value_a=va, value_b=vb, delta=vb - va, share=None,
        ))
    return Explanation(
        run_a=label_a or profile_a.run_id or "A",
        run_b=label_b or profile_b.run_id or "B",
        t_end_a=profile_a.t_end,
        t_end_b=profile_b.t_end,
        contributors=contributors,
        counters=counters,
        metrics_a=dict(metrics_a or {}),
        metrics_b=dict(metrics_b or {}),
    )


# ---------------------------------------------------------------------------
# Rendering (CLI text + HTTP JSON share one source of truth)
# ---------------------------------------------------------------------------


def why_payload(explanation: Explanation) -> dict:
    """The ``--json`` / ``GET .../explain`` shape."""
    def rows(contributors):
        return [
            {
                "name": c.name, "a": c.value_a, "b": c.value_b,
                "delta": c.delta, "share": c.share,
            }
            for c in contributors
        ]

    payload = {
        "a": explanation.run_a,
        "b": explanation.run_b,
        "t_end_a": explanation.t_end_a,
        "t_end_b": explanation.t_end_b,
        "time_delta": explanation.time_delta,
        "verdict": explanation.verdict,
        "contributors": rows(explanation.contributors),
        "counters": rows(explanation.counters),
    }
    gain_a = explanation.metrics_a.get("gain")
    gain_b = explanation.metrics_b.get("gain")
    if isinstance(gain_a, (int, float)) and isinstance(gain_b, (int, float)):
        payload["gain_a"] = gain_a
        payload["gain_b"] = gain_b
        payload["gain_delta"] = gain_b - gain_a
    return payload


def render_why(explanation: Explanation) -> str:
    """The deterministic plain-text "why" report."""
    lines = [f"why: {explanation.run_a} -> {explanation.run_b}", ""]
    gain_a = explanation.metrics_a.get("gain")
    gain_b = explanation.metrics_b.get("gain")
    if isinstance(gain_a, (int, float)) and isinstance(gain_b, (int, float)):
        lines.append(
            f"gain: {gain_a:.4g} -> {gain_b:.4g} "
            f"({gain_b - gain_a:+.4g})"
        )
    lines.append(
        f"download time: {explanation.t_end_a:.3f}s -> "
        f"{explanation.t_end_b:.3f}s ({explanation.time_delta:+.3f}s)"
    )
    lines.append("")
    rows = [
        (
            c.name,
            f"{c.value_a:.3f}",
            f"{c.value_b:.3f}",
            f"{c.delta:+.3f}",
            "-" if c.share is None else f"{c.share:+.0%}",
        )
        for c in explanation.contributors
    ]
    lines.append(render_table(
        "phase contributors (ranked)",
        ("phase", "a (s)", "b (s)", "delta", "share"),
        rows,
    ))
    moved = [c for c in explanation.counters if c.delta]
    if moved:
        lines.append("")
        lines.append(render_table(
            "event counts that moved",
            ("counter", "a", "b", "delta"),
            [(c.name, f"{c.value_a:g}", f"{c.value_b:g}", f"{c.delta:+g}")
             for c in moved],
        ))
    lines.append("")
    lines.append(explanation.verdict)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Record loading (shared by the CLI and the HTTP service)
# ---------------------------------------------------------------------------


def load_wide_for_run(wide_dir: str, run_id: str) -> list[dict]:
    """All wide records for ``run_id`` across ``wide_dir``'s JSONL files.

    Files are visited in sorted order so the result is stable across
    filesystems; record order within a file is the emission order.
    """
    records = []
    for path in sorted(glob.glob(os.path.join(wide_dir, "*.jsonl"))):
        for record in read_wide(path):
            if record.get("run") == run_id:
                records.append(record)
    return records


class NoWideEvents(ValueError):
    """A run has no wide records to profile; carries the run and the
    directory searched so each front door words it its own way."""

    def __init__(self, run_id: str, directory: str) -> None:
        super().__init__(
            f"no wide events for {run_id!r} under {directory} "
            f"(re-run with --emit-wide or derive them with "
            f"'repro trace wide')"
        )
        self.run_id = run_id
        self.directory = directory


def explain_registry_pair(registry, key_a: str, key_b: str,
                          wide_dir: Optional[str] = None) -> Explanation:
    """Resolve two registry keys and attribute B's movement from A:
    the one answer behind ``repro runs why`` and ``GET .../explain``.

    Raises :class:`KeyError` for an unknown key and :class:`NoWideEvents`
    (a :class:`ValueError`) when a run has no wide records to profile.
    """
    record_a = registry.find(key_a)
    record_b = registry.find(key_b)
    directory = wide_dir or registry.wide_dir
    records_a = load_wide_for_run(directory, record_a.run_id)
    records_b = load_wide_for_run(directory, record_b.run_id)
    for rec, records in ((record_a, records_a), (record_b, records_b)):
        if not records:
            raise NoWideEvents(rec.run_id, directory)
    return explain(
        records_a, records_b,
        metrics_a=record_a.metrics, metrics_b=record_b.metrics,
        label_a=record_a.rec_id, label_b=record_b.rec_id,
    )
