"""Experiment driver, metrics and report formatting for the paper's
tables and figures."""

from repro.analysis.metrics import geomean, mean, normalized, safe_div
from repro.analysis.driver import (
    RunKey,
    clear_cache,
    get_engine,
    make_key,
    run_benchmark,
    run_matrix,
    set_engine,
    speedups_over_baseline,
)
from repro.analysis.report import format_table, format_percent
from repro.analysis.timeline import burstiness, render_timeline, sparkline
from repro.analysis.validate import Check, all_passed, validate_shape

__all__ = [
    "geomean",
    "mean",
    "normalized",
    "safe_div",
    "RunKey",
    "clear_cache",
    "get_engine",
    "set_engine",
    "make_key",
    "run_benchmark",
    "run_matrix",
    "speedups_over_baseline",
    "format_table",
    "format_percent",
    "burstiness",
    "render_timeline",
    "sparkline",
    "Check",
    "all_passed",
    "validate_shape",
]
