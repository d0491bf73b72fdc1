"""Result presentation: aligned text tables and ASCII plots.

The experiment runners print the same rows/series the paper reports;
these helpers keep the formatting in one place and make the output easy
to diff between runs (EXPERIMENTS.md is generated from them).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned, pipe-separated text table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def ascii_plot(
    series: Sequence[Tuple[str, Sequence[Tuple[float, float]]]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """A quick ASCII scatter of several series (for terminal inspection).

    Each series gets the first letter of its name as its mark.
    """
    points = [
        (x, y) for _name, series_points in series for x, y in series_points
    ]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    marks = _unique_marks([name for name, _pts in series])
    for (name, series_points), mark in zip(series, marks):
        for x, y in series_points:
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = mark
    lines = []
    if y_label:
        lines.append(f"{y_label} (top={_fmt(y_max)}, bottom={_fmt(y_min)})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    footer = f" {x_label}: {_fmt(x_min)} .. {_fmt(x_max)}"
    lines.append(footer)
    legend = "  ".join(
        f"{mark}={name}" for (name, _pts), mark in zip(series, marks) if name
    )
    lines.append(" legend: " + legend)
    return "\n".join(lines)


def _unique_marks(names: Sequence[str]) -> List[str]:
    """One distinct single-character mark per series.

    Prefers the first letter of the name; falls back to later letters and
    then digits when series share an initial.
    """
    marks: List[str] = []
    used = set()
    fallback = iter("123456789*#@%&+")
    for name in names:
        mark = None
        for character in name or "*":
            if character.strip() and character not in used:
                mark = character
                break
        if mark is None:
            for character in fallback:
                if character not in used:
                    mark = character
                    break
            else:  # pragma: no cover - more than ~15 series
                mark = "?"
        used.add(mark)
        marks.append(mark)
    return marks


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    return str(value)
