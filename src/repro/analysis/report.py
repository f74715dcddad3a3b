"""Plain-text table rendering for experiment output.

The paper's figures are bar charts; we regenerate them as aligned ASCII
tables (one row per benchmark, one column per series), which preserves
every number a reader would take off the charts.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

__all__ = ["format_table", "geomean"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render rows as an aligned monospace table."""
    rendered: list[list[str]] = []
    for row in rows:
        out = []
        for cell in row:
            if isinstance(cell, float):
                out.append(float_fmt.format(cell))
            else:
                out.append(str(cell))
        rendered.append(out)
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(r) for r in rendered)
    return "\n".join(parts)


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
