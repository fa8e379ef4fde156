"""Metrics collector: windowing math, reconciliation, pure-observer."""

from __future__ import annotations

import json

import pytest

from repro.config import test_config as tiny_config
from repro.obs import (
    SAMPLE_FIELDS,
    MetricsCollector,
    per_sm_ipc,
    series,
    window_totals,
)
from repro.prefetch import make_prefetcher
from repro.sim.gpu import simulate
from repro.workloads import Scale, build


def run_observed(bench="MM", engine="caps", window=256, **obs):
    cfg = tiny_config().with_obs(metrics=True, window=window, **obs)
    return simulate(build(bench, Scale.TINY), cfg, make_prefetcher(engine))


class TestWindowing:
    def test_sample_boundaries_are_window_multiples(self):
        res = run_observed(window=256)
        ts = res.extra["timeseries"]
        cycles = series(ts, "cycle")
        # Every sample but the final partial one lands on a boundary.
        assert all(int(c) % 256 == 0 for c in cycles[:-1])
        # Boundaries are strictly increasing and end at the run length.
        assert cycles == sorted(set(cycles))
        assert int(cycles[-1]) == res.cycles

    def test_window_deltas_sum_to_run_totals(self):
        res = run_observed()
        ts = res.extra["timeseries"]
        assert window_totals(ts, "instructions") == res.instructions
        assert ts["window"] == 256
        assert ts["fields"] == list(SAMPLE_FIELDS)
        assert all(len(row) == len(SAMPLE_FIELDS) for row in ts["samples"])

    def test_per_sm_instructions_sum_to_totals(self):
        res = run_observed()
        ts = res.extra["timeseries"]
        per_window = ts["sm_instructions"]
        assert len(per_window) == len(ts["samples"])
        total = sum(sum(row) for row in per_window)
        assert total == res.instructions
        ipc = per_sm_ipc(ts)
        assert len(ipc) == len(per_window)
        assert all(len(row) == ts["num_sms"] for row in ipc)

    def test_tiny_window_still_reconciles(self):
        res = run_observed(window=1)
        ts = res.extra["timeseries"]
        assert window_totals(ts, "instructions") == res.instructions

    def test_collector_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MetricsCollector(0, 2)


class TestReconciliation:
    def test_totals_match_prefetch_stats_exactly(self):
        res = run_observed()
        t = res.extra["timeseries"]["totals"]
        ps = res.prefetch_stats
        assert t["pf_issued"] == ps.issued
        assert t["pf_useful"] == ps.useful
        assert t["pf_late_merge"] == ps.late_merge
        assert t["pf_early_evicted"] == ps.early_evicted
        assert t["pf_distance_sum"] == ps.distance_sum
        assert t["pf_late_wait_sum"] == ps.late_wait_sum
        # ... and windowed deltas reconcile with the run totals too.
        ts = res.extra["timeseries"]
        assert window_totals(ts, "pf_issued") == ps.issued
        assert window_totals(ts, "pf_useful") == ps.useful

    def test_distance_histogram_counts_consumptions(self):
        res = run_observed()
        ts = res.extra["timeseries"]
        ps = res.prefetch_stats
        assert sum(ts["distance_hist"]["counts"]) == ps.useful + ps.late_merge


class TestPureObserver:
    def test_observing_does_not_change_the_simulation(self):
        kernel_a = build("MM", Scale.TINY)
        kernel_b = build("MM", Scale.TINY)
        plain = simulate(kernel_a, tiny_config(), make_prefetcher("caps"))
        observed = simulate(
            kernel_b,
            tiny_config().with_obs(metrics=True, trace=True),
            make_prefetcher("caps"),
        )
        assert observed.cycles == plain.cycles
        assert observed.instructions == plain.instructions
        assert observed.prefetch_stats == plain.prefetch_stats

    def test_disabled_obs_adds_no_extra_keys(self):
        res = simulate(build("MM", Scale.TINY), tiny_config(),
                       make_prefetcher("caps"))
        for key in ("timeseries", "trace", "profile"):
            assert key not in res.extra

    def test_payload_is_json_able(self):
        res = run_observed(trace=True, profile=True)
        json.dumps(res.extra)  # raises on any non-serialisable leaf
