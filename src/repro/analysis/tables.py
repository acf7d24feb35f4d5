"""Plain-text tables for experiment reports.

Every benchmark prints its figure/table through these helpers so that
the harness output can be compared line-by-line with the paper's plots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def percent(value: float, digits: int = 1) -> str:
    """Format a ratio as a signed percentage string."""
    return f"{value * 100:+.{digits}f}%"


def bar(value: float, scale: float = 1.0, width: int = 40,
        char: str = "#") -> str:
    """A horizontal ASCII bar for quick visual comparison.

    ``scale`` is the value that fills the whole ``width``.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = int(round(max(0.0, min(value / scale, 1.0)) * width))
    return char * n


def format_bar_chart(items: Sequence[tuple], scale: float,
                     width: int = 40, title: Optional[str] = None,
                     value_format: str = "{:.1%}") -> str:
    """Labelled horizontal bar chart: ``items`` is (label, value) pairs."""
    lines: List[str] = []
    if title:
        lines.append(title)
    label_w = max((len(str(label)) for label, _ in items), default=0)
    for label, value in items:
        lines.append(
            f"{str(label).ljust(label_w)} | "
            f"{bar(value, scale, width)} {value_format.format(value)}")
    return "\n".join(lines)


def format_series(xs: Sequence[float], ys: Sequence[float],
                  x_label: str, y_label: str,
                  y_format: str = "{:.3f}") -> str:
    """Two-column series listing (for timeline figures)."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    lines = [f"{x_label:>12}  {y_label}"]
    for x, y in zip(xs, ys):
        lines.append(f"{x:12.3f}  {y_format.format(y)}")
    return "\n".join(lines)


def savings_table(rows: Dict[str, Dict[str, float]],
                  title: Optional[str] = None) -> str:
    """Table of per-workload savings/degradation percentages.

    ``rows`` maps a row label to column-name -> ratio.
    """
    if not rows:
        raise ValueError("no rows to format")
    columns = list(next(iter(rows.values())))
    table_rows = [
        [label] + [percent(values[c]) for c in columns]
        for label, values in rows.items()
    ]
    return format_table(["workload"] + columns, table_rows, title=title)
