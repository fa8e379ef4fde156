"""Experiment driver, metrics and report formatting for the paper's
tables and figures."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.metrics": ("geomean", "mean", "normalized", "safe_div"),
    "repro.exec.cache": ("RunKey", "make_key"),
    "repro.analysis.driver": (
        "clear_cache",
        "get_engine",
        "run_benchmark",
        "run_cells",
        "run_sweep",
        "set_engine",
        "speedups_over_baseline",
    ),
    "repro.analysis.report": ("format_table", "format_percent"),
    "repro.analysis.timeline": ("burstiness", "render_timeline", "sparkline"),
    "repro.analysis.validate": (
        "CLAIMS", "experiment_plan", "grade", "reproduced", "run_plan",
        "scoreboard",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
