"""Plain-text table rendering for the CLI and the examples.

A tiny formatter keeps their tables aligned and free of external
dependencies.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Union

Cell = Union[str, int, float]

#: Digits after the point of a non-integral float cell.
PRECISION = 3


def format_cell(value: Cell) -> str:
    """Render a single cell: floats get :data:`PRECISION` digits, everything else ``str``.

    Integral floats print as integers; ``nan`` and ``±inf`` print as
    ``nan``, ``inf`` and ``-inf``.
    """
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{PRECISION}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """Render an aligned plain-text table with a header rule."""
    rendered_rows: List[List[str]] = [[format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rendered_rows
    ]
    return "\n".join([header_line, rule] + body)


def format_records(records: Sequence[Dict[str, Cell]]) -> str:
    """Render a list of homogeneous dictionaries as a table (keys become headers)."""
    if not records:
        return "(no rows)"
    headers = list(records[0].keys())
    rows = [[record.get(h, "") for h in headers] for record in records]
    return format_table(headers, rows)

