"""Tests for the per-tier hit-rate series (repro.obs.cachestats)."""

import threading

import pytest

from repro.obs.cachestats import SERVE_TIERS, TierHitSeries


class FakeClock:
    """A deterministic monotonic clock tests can step explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_series(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("window_s", 1.0)
    return TierHitSeries(clock=clock, **kwargs), clock


class TestTotals:
    def test_lifetime_totals_and_ratio(self):
        series, _ = make_series()
        series.record("memcache", True)
        series.record("memcache", True)
        series.record("memcache", False)
        assert series.totals("memcache") == (3, 2)
        assert series.hit_ratio("memcache") == pytest.approx(2 / 3)
        assert series.totals("disk") == (0, 0)
        assert series.hit_ratio("disk") == 0.0

    def test_preregistered_tiers_appear_in_snapshot(self):
        series, _ = make_series()
        totals = series.snapshot()["totals"]
        assert set(totals) == set(SERVE_TIERS)
        assert totals["memcache"] == {
            "lookups": 0, "hits": 0, "hit_ratio": 0.0}

    def test_unknown_tier_admitted_on_first_use(self):
        series, _ = make_series()
        series.record("l2", True)
        assert series.totals("l2") == (1, 1)
        assert "l2" in series.snapshot()["totals"]


class TestWindows:
    def test_observations_bucket_by_clock(self):
        series, clock = make_series(window_s=1.0)
        series.record("memcache", True)
        clock.now = 0.5
        series.record("memcache", False)
        clock.now = 2.25            # skips the idle window 1
        series.record("disk", True)
        windows = series.snapshot()["windows"]
        assert [w["index"] for w in windows] == [0, 2]
        assert windows[0]["tiers"]["memcache"] == {"lookups": 2, "hits": 1}
        assert windows[1]["tiers"]["disk"] == {"lookups": 1, "hits": 1}

    def test_ring_is_bounded(self):
        series, clock = make_series(window_s=1.0, max_windows=3)
        for i in range(10):
            clock.now = float(i)
            series.record("memcache", True)
        windows = series.snapshot()["windows"]
        assert len(windows) == 3
        assert [w["index"] for w in windows] == [7, 8, 9]
        # Totals are lifetime, unaffected by the ring bound.
        assert series.totals("memcache") == (10, 10)

    def test_snapshot_is_json_shaped(self):
        import json
        series, clock = make_series()
        series.record("memcache", True)
        clock.now = 1.5
        series.record("dedup", False)
        payload = json.loads(json.dumps(series.snapshot()))
        assert payload["window_s"] == 1.0
        assert payload["totals"]["memcache"]["hit_ratio"] == 1.0


class TestValidationAndSafety:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            TierHitSeries(window_s=0)
        with pytest.raises(ValueError, match="max_windows"):
            TierHitSeries(max_windows=0)

    def test_concurrent_recording_loses_nothing(self):
        """Disk events arrive from the executor thread while request
        tiers record on the loop; counts must not race."""
        series = TierHitSeries()
        per_thread = 500

        def worker(tier):
            for _ in range(per_thread):
                series.record(tier, True)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in ("memcache", "disk", "memcache")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert series.totals("memcache") == (2 * per_thread, 2 * per_thread)
        assert series.totals("disk") == (per_thread, per_thread)
