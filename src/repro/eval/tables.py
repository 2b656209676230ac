"""Plain-text table formatting for experiment output.

Benchmarks and examples print the same rows the paper's tables and
figures report; this helper keeps that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render rows as an aligned plain-text table."""
    materialized = [[_fmt(cell, float_format) for cell in row] for row in rows]
    widths = [len(str(h)) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object, float_format: str) -> str:
    if isinstance(cell, float):
        return float_format.format(cell)
    if cell is None:
        return "-"
    return str(cell)
