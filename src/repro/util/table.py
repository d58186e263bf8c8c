"""The one fixed-width text table every report and CLI view prints."""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """A generic fixed-width table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    formatted_rows = []
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not match headers {headers!r}")
        cells = [
            f"{cell:.2f}" if isinstance(cell, float) else str(cell) for cell in row
        ]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        formatted_rows.append(cells)
    header_line = " | ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    rule = "-" * len(header_line)
    lines = [title, rule, header_line, rule]
    for cells in formatted_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(cells, widths)))
    lines.append(rule)
    return "\n".join(lines)
