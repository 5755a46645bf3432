"""Complexity analysis utilities: paper bound formulas, scaling fits,
cost-of-asynchrony ratios, execution timelines, and aggregation
statistics."""

from . import bounds
from .coa import CoaReport, coa_report
from .timeline import TimelineRecorder, crash_summary, render_timeline
from .fitting import (
    PowerLawFit,
    SkippedFit,
    fit_power_law,
    fit_power_law_with_log,
    safe_fit_power_law,
)
from .stats import Summary, success_rate, summarize
from .tables import format_cell, render_markdown, render_table

__all__ = [
    "CoaReport",
    "PowerLawFit",
    "SkippedFit",
    "Summary",
    "TimelineRecorder",
    "bounds",
    "coa_report",
    "crash_summary",
    "render_timeline",
    "fit_power_law",
    "fit_power_law_with_log",
    "format_cell",
    "safe_fit_power_law",
    "render_markdown",
    "render_table",
    "success_rate",
    "summarize",
]
