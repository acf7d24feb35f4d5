"""Reporting helpers: monospace tables and ASCII charts for benches, and
the performance model's per-epoch CPI error."""

from repro.analysis.model_error import cpi_errors
from repro.analysis.tables import (
    bar,
    format_bar_chart,
    format_series,
    format_table,
    percent,
    savings_table,
)

__all__ = [
    "bar",
    "cpi_errors",
    "format_bar_chart",
    "format_series",
    "format_table",
    "percent",
    "savings_table",
]
