"""Tests for analysis helpers: metrics, report formatting, driver."""


import pytest

from repro.analysis.metrics import geomean, mean, normalized, safe_div
from repro.analysis.report import format_percent, format_table
from repro.analysis.driver import (
    clear_cache,
    run_benchmark,
    matrix_cells,
    run_cells,
    speedups_over_baseline,
)
from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.workloads import Scale


class TestMetrics:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_below_arithmetic_mean(self):
        vals = [0.5, 1.0, 2.0, 4.0]
        assert geomean(vals) < mean(vals)

    def test_safe_div(self):
        assert safe_div(4, 2) == 2
        assert safe_div(4, 0, default=-1) == -1

    def test_normalized(self):
        out = normalized({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}

    def test_normalized_zero_baseline(self):
        with pytest.raises(ValueError):
            normalized({"a": 0.0}, "a")


class TestReport:
    def test_alignment_and_floats(self):
        t = format_table(["name", "v"], [("x", 1.23456), ("longer", 2.0)])
        lines = t.splitlines()
        assert len({len(l) for l in lines}) == 1  # aligned
        assert "1.235" in t

    def test_title(self):
        t = format_table(["a"], [(1,)], title="Hello")
        assert t.splitlines()[0] == "Hello"

    def test_bool_cells(self):
        assert "yes" in format_table(["ok"], [(True,)])

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        t = format_table(["a", "b"], [])
        assert "a" in t

    def test_format_percent(self):
        assert format_percent(0.123) == "12.3%"
        assert format_percent(0.0091, 2) == "0.91%"


class TestDriver:
    def test_run_benchmark_caches(self):
        clear_cache()
        cfg = tiny_config()
        a = run_benchmark("SCN", "none", config=cfg, scale=Scale.TINY)
        b = run_benchmark("SCN", "none", config=cfg, scale=Scale.TINY)
        assert a is b

    def test_cache_key_includes_scheduler(self):
        cfg = tiny_config()
        a = run_benchmark("SCN", "none", config=cfg, scale=Scale.TINY)
        b = run_benchmark("SCN", "none", config=cfg, scale=Scale.TINY,
                          scheduler=SchedulerKind.LRR)
        assert a is not b
        assert b.scheduler == "lrr"

    def test_caps_defaults_to_pas(self):
        cfg = tiny_config()
        r = run_benchmark("SCN", "caps", config=cfg, scale=Scale.TINY)
        assert r.scheduler == "pas"

    def test_matrix_and_speedups(self):
        cfg = tiny_config()
        m = run_cells(matrix_cells(["SCN"], ("none", "nlp"), config=cfg,
                                   scale=Scale.TINY))
        sp = speedups_over_baseline(m, ["SCN"], ("nlp",))
        assert ("SCN", "nlp") in sp
        assert sp[("SCN", "nlp")] == pytest.approx(
            m[("SCN", "nlp")].ipc / m[("SCN", "none")].ipc
        )

    def test_incomplete_run_raises(self):
        cfg = tiny_config(max_cycles=5)
        clear_cache()
        with pytest.raises(RuntimeError):
            run_benchmark("SCN", "none", config=cfg, scale=Scale.TINY,
                          use_cache=False)
        clear_cache()
