"""Golden tests: Figure 14 metrics from the obs series vs the counters.

The Figure 14 functions in :mod:`repro.analysis.figures` read the
end-of-run :class:`~repro.prefetch.stats.PrefetchStats`.  These tests
pin that the ``extra["timeseries"]`` totals give the same two metrics to
the last bit (the hooks fire at the same call sites), the figures'
values at TINY, and that the series are deterministic across serial and
parallel execution.
"""

from __future__ import annotations

from repro.analysis.figures import (
    fig14a_early_prefetch_ratio,
    fig14b_prefetch_distance,
)
from repro.config import test_config as tiny_config
from repro.exec import ExecutionEngine, RunKey
from repro.prefetch import make_prefetcher
from repro.prefetch.factory import default_scheduler_for
from repro.sim.gpu import simulate
from repro.workloads import Scale, build

BENCHES = ("MM", "CNV")


def obs_config(engine="caps"):
    return (tiny_config()
            .with_scheduler(default_scheduler_for(engine))
            .with_obs(metrics=True))


def observed(bench):
    r = simulate(build(bench, Scale.TINY), obs_config(),
                 make_prefetcher("caps"))
    return r.extra["timeseries"]["totals"], r.prefetch_stats


class TestGoldenAgainstCounters:
    def test_fig14a_series_matches_counter_math(self):
        """Early-evict ratio from the series totals == the
        PrefetchStats ratio Figure 14a reads, benchmark by benchmark."""
        for bench in BENCHES:
            t, ps = observed(bench)
            assert t["pf_issued"] == ps.issued > 0
            assert t["pf_early_evicted"] / t["pf_issued"] == ps.early_ratio()

    def test_fig14b_series_matches_counter_math(self):
        for bench in BENCHES:
            t, ps = observed(bench)
            consumed = t["pf_useful"] + t["pf_late_merge"]
            assert consumed == ps.consumed > 0
            lead = (t["pf_distance_sum"] + t["pf_late_wait_sum"]) / consumed
            assert lead == ps.mean_lead()

    def test_fig14_figures_pinned_at_tiny(self):
        """The figure entry points at TINY on two benchmarks, pinned to
        the bit (the obs series totals give the same values)."""
        assert fig14a_early_prefetch_ratio(
            scale=Scale.TINY, config=tiny_config(), benchmarks=BENCHES) == {
            "intra": None,      # INTRA issued nothing on these two
            "inter": 0.4476439790575916, "mta": 0.5125786163522013,
            "caps": 0.0, "caps_no_wakeup": 0.0}
        assert fig14b_prefetch_distance(
            scale=Scale.TINY, config=tiny_config(), benchmarks=BENCHES) == {
            "LRR": 23.33974358974359, "TLV": 69.48492723492723,
            "PA-TLV": 67.39604728922856}


class TestDeterminism:
    def test_serial_vs_parallel_series_identical(self):
        """The exact same timeseries payload comes back whether a cell is
        simulated inline or in a worker process (pickled both ways)."""
        keys = [RunKey(b, "caps", Scale.TINY, obs_config()) for b in BENCHES]
        a = ExecutionEngine(jobs=1).run_many(keys, use_cache=False)
        b = ExecutionEngine(jobs=2).run_many(keys, use_cache=False)
        for key in keys:
            assert a[key].extra["timeseries"] == b[key].extra["timeseries"]
