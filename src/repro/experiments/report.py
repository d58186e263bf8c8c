"""Text rendering of experiment results (the bench harness output).

Each bench prints the same rows/series the paper reports: a labelled
table with Xftp and SoftStage download times and the gain, plus the
paper's value for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.spans import render_summary
from repro.util import render_table


@dataclass
class GainRow:
    """One x-axis point of a Fig. 6-style plot."""

    label: str
    xftp_time: float
    softstage_time: float
    paper_gain: Optional[float] = None

    @property
    def gain(self) -> float:
        return self.xftp_time / self.softstage_time if self.softstage_time else 0.0


@dataclass
class GainSeries:
    """A full micro-benchmark series (one figure panel)."""

    title: str
    parameter: str
    rows: list[GainRow] = field(default_factory=list)

    def add(self, label, xftp_time, softstage_time, paper_gain=None) -> GainRow:
        row = GainRow(str(label), xftp_time, softstage_time, paper_gain)
        self.rows.append(row)
        return row

    def render(self) -> str:
        header = (
            f"{self.parameter:>18} | {'Xftp (s)':>9} | {'SoftStage (s)':>13} | "
            f"{'gain':>6} | {'paper':>6}"
        )
        rule = "-" * len(header)
        lines = [self.title, rule, header, rule]
        for row in self.rows:
            paper = f"{row.paper_gain:.2f}x" if row.paper_gain is not None else "-"
            lines.append(
                f"{row.label:>18} | {row.xftp_time:9.1f} | {row.softstage_time:13.1f} | "
                f"{row.gain:5.2f}x | {paper:>6}"
            )
        lines.append(rule)
        return "\n".join(lines)


#: The canonical per-kind span table (the one the live/offline parity
#: tests compare byte-for-byte), under its report-side name.
render_spans = render_summary


def render_breakdown(summary, title: str = "Latency breakdown") -> str:
    """Render a :class:`repro.obs.analyze.BreakdownSummary`."""
    rows = [
        ("chunks delivered", summary.chunks),
        ("from edge", summary.edge),
        ("from origin", summary.origin),
        ("origin fallbacks", summary.fallback),
        ("mean stage wait (s)", summary.mean_stage_wait),
        ("mean edge fetch (s)", summary.mean_edge_fetch),
        ("mean origin fetch (s)", summary.mean_origin_fetch),
        ("staging masked by disconnection (s)", summary.masked_total),
    ]
    return render_table(title, ("measure", "value"), rows)
