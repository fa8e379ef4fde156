"""Tests for the execution-timeline view (repro.analysis.timeline) over
the sampled metric series (``SimResult.extra["timeseries"]``)."""

import pytest

from repro.analysis.timeline import (
    ROWS,
    burstiness,
    render_timeline,
    sparkline,
    window_fractions,
)
from repro.config import small_config
from repro.config import test_config as tiny_config
from repro.exec import execute_cell
from repro.exec.cache import make_key
from repro.obs.collector import series
from repro.sim.gpu import simulate
from repro.workloads import Scale

from tests.conftest import make_stream_kernel

WINDOW = 50


@pytest.fixture(scope="module")
def monitored():
    result = simulate(make_stream_kernel(num_ctas=8, loads=3),
                      tiny_config().with_obs(metrics=True, window=WINDOW))
    return result, result.extra["timeseries"]


class TestMonitor:
    def test_samples_collected_at_interval(self, monitored):
        result, ts = monitored
        cycles = series(ts, "cycle")
        aligned = list(range(WINDOW, result.cycles + 1, WINDOW))
        assert cycles[:len(aligned)] == aligned
        # ... plus the final partial window, if the run left one.
        assert cycles[len(aligned):] in ([], [result.cycles])

    def test_issue_fraction_bounded(self, monitored):
        _, ts = monitored
        for field in ("instructions", "stall_mem_all"):
            for frac in window_fractions(ts, field):
                assert 0 <= frac <= 1.0 + 1e-9

    def test_issue_fractions_sum_to_instruction_count(self, monitored):
        result, ts = monitored
        cycles = series(ts, "cycle")
        spans = [b - a for a, b in zip([0] + cycles, cycles)]
        issued = sum(frac * span * ts["num_sms"] for frac, span in
                     zip(window_fractions(ts, "instructions"), spans))
        assert issued == pytest.approx(result.instructions)

    def test_waiting_warps_nonnegative(self, monitored):
        _, ts = monitored
        assert all(v >= 0 for v in series(ts, "waiting_warps"))

    def test_burstiness_positive_for_memory_kernel(self, monitored):
        _, ts = monitored
        assert burstiness(ts, "dram_queue_depth") > 0
        assert burstiness(ts) == burstiness(ts, "dram_queue_depth")

    def test_series_extraction(self, monitored):
        _, ts = monitored
        assert len(window_fractions(ts, "instructions")) == len(ts["samples"])

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            tiny_config().with_obs(metrics=True, window=0)

    def test_no_monitor_changes_nothing(self):
        a = simulate(make_stream_kernel(), tiny_config())
        b = simulate(make_stream_kernel(),
                     tiny_config().with_obs(metrics=True, window=25))
        assert a.cycles == b.cycles

    def test_window_aligned_samples_match_the_interval_sampler(self):
        """MM / caps at TINY scale, one sample per 150 cycles: the
        values the interval sampler this view replaced recorded at the
        parent commit (cycle, issue, stalled and replay fractions,
        waiting warps, DRAM queue depth, prefetches in flight).  The
        series adds one final partial window and nothing else."""
        parent = [
            (150, 1.0, 0.0, 0.0, 32, 0, 16),
            (300, 0.4533333333333333, 0.52, 0.0, 48, 54, 44),
            (450, 0.045, 0.9366666666666666, 0.0, 62, 19, 44),
            (600, 0.8816666666666667, 0.023333333333333334, 0.0, 12, 0, 12),
            (750, 1.0, 0.0, 0.0, 22, 0, 24),
            (900, 1.0, 0.0, 0.0, 4, 0, 7),
            (1050, 0.74, 0.09, 0.0, 64, 26, 56),
            (1200, 0.575, 0.38666666666666666, 0.0, 18, 0, 17),
            (1350, 1.0, 0.0, 0.0, 0, 0, 0),
            (1500, 0.9533333333333334, 0.0, 0.0, 0, 1, 0),
            (1650, 0.9933333333333333, 0.0, 0.0, 0, 0, 0),
            (1800, 0.61, 0.0, 0.0, 0, 0, 0),
        ]
        cfg = small_config().with_obs(metrics=True, window=150)
        result = execute_cell(make_key("MM", "caps", config=cfg,
                                       scale=Scale.TINY))
        ts = result.extra["timeseries"]
        columns = [series(ts, "cycle")] + [
            window_fractions(ts, field) if is_counter else series(ts, field)
            for _, field, is_counter in ROWS]
        rows = list(zip(*columns))
        assert rows[:-1] == parent
        assert rows[-1][0] == result.cycles == 1830


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_peak_is_full_block(self):
        s = sparkline([0.0, 0.5, 1.0])
        assert s[-1] == "█"
        assert s[0] == " "

    def test_resampling_to_width(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10

    def test_short_series_not_padded(self):
        assert len(sparkline([1, 2], width=10)) == 2

    def test_render_timeline_has_all_rows(self, monitored):
        _, ts = monitored
        lines = render_timeline(ts, width=40).splitlines()
        assert len(lines) == 6
        for line, label in zip(lines, ("issue", "stalled", "replay",
                                       "waiting", "dram q", "pf infl")):
            assert line.startswith(label)
