"""ASCII table rendering for benches, experiments and the CLI."""

from __future__ import annotations

from typing import Any, List, Sequence


def format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render a fixed-width ASCII table (one row per sequence)."""
    cells: List[List[str]] = [[format_cell(h) for h in headers]]
    for row in rows:
        cells.append([format_cell(value) for value in row])
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(separator)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)



def render_markdown(headers: Sequence[str],
                    rows: Sequence[Sequence[Any]]) -> str:
    """Render a GitHub-flavored markdown table (for EXPERIMENTS.md)."""
    lines = ["| " + " | ".join(format_cell(h) for h in headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append(
            "| " + " | ".join(format_cell(value) for value in row) + " |"
        )
    return "\n".join(lines)
