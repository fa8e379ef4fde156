"""Plain-text table rendering: the aligned ASCII tables ``repro list``,
``run``, ``sweep`` and ``validate`` print."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_percent(x: float, digits: int = 1) -> str:
    return f"{100.0 * x:.{digits}f}%"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: Optional[str] = None,
    float_digits: int = 3,
) -> str:
    """Render an aligned table; floats get ``float_digits`` decimals."""

    def cell(v: object) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return f"{v:.{float_digits}f}"
        return str(v)

    str_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    cols = len(headers)
    for r in str_rows:
        if len(r) != cols:
            raise ValueError(f"row {r} has {len(r)} cells, expected {cols}")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows
        else len(headers[c])
        for c in range(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(r[c].rjust(widths[c]) for c in range(cols)))
    return "\n".join(lines)
