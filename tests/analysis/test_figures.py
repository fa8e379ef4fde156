"""Tests for the per-figure experiment functions (repro.analysis.figures).

These run tiny configurations — ``repro figures`` / ``repro validate``
run the full-size ones and ``analysis/validate.py`` grades them; here we
only check that each function produces structurally sound data.
"""

import pytest

from repro.analysis.figures import (
    STUDIES,
    fig_caps_variants,
    fig1_interwarp_accuracy,
    fig4_loop_iterations,
    fig10_normalized_ipc,
    fig11_cta_sweep,
    fig12_coverage_accuracy,
    fig13_bandwidth_overhead,
    fig14a_early_prefetch_ratio,
    fig14b_prefetch_distance,
    fig15_energy,
    sec1_nn_stalls,
)
from repro.config import test_config as tiny_config
from repro.workloads import Scale

BENCHES = ("SCN", "BFS")
ENGINES = ("nlp", "caps")


@pytest.fixture(scope="module")
def cfg():
    return tiny_config(max_cycles=600_000)


class TestFig1:
    def test_accuracy_decays_across_cta_boundary(self, cfg):
        pts = fig1_interwarp_accuracy(
            distances=(1, 8), scale=Scale.TINY, config=cfg
        )
        acc = {p.distance: p.accuracy for p in pts}
        assert acc[1] > acc[8]
        assert all(0 <= p.accuracy <= 1 for p in pts)
        assert all(p.samples > 0 for p in pts)

    def test_gap_grows_with_distance(self, cfg):
        pts = fig1_interwarp_accuracy(
            distances=(1, 4), scale=Scale.TINY, config=cfg
        )
        assert pts[0].mean_gap_cycles < pts[1].mean_gap_cycles

    def test_nearest_neighbor_stall_breakdown(self, cfg):
        nn = sec1_nn_stalls(scale=Scale.TINY, config=cfg)
        assert nn["completed"] == 1.0
        assert 0 < nn["stall_all"] < 1
        assert nn["stall_all"] + nn["stall_partial"] + nn["issuing"] <= 1.0


class TestFig4:
    def test_all_benchmarks_present(self):
        rows = fig4_loop_iterations()
        assert {r.benchmark for r in rows} == {
            "CP", "LPS", "BPR", "HSP", "MRQ", "STE", "CNV", "HST",
            "JC1", "FFT", "SCN", "MM", "PVR", "CCL", "BFS", "KM",
        }
        assert all(r.model_mean_iterations >= 1 for r in rows)


class TestFig10:
    def test_structure_and_means(self, cfg):
        data = fig10_normalized_ipc(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        assert set(data["SCN"]) == set(ENGINES)
        assert "Mean(all)" in data
        assert all(v > 0 for v in data["Mean(all)"].values())


class TestFig11:
    def test_limits_and_normalization(self, cfg):
        data = fig11_cta_sweep(
            cta_limits=(1, 4), scale=Scale.TINY, config=cfg,
            benchmarks=("SCN",), engines=("caps",),
        )
        assert set(data) == {1, 4}
        # the reference point normalizes to ~1
        assert data[4]["none"] == pytest.approx(1.0)
        assert data[1]["none"] < 1.0


class TestFig12_13:
    def test_ranges(self, cfg):
        cov = fig12_coverage_accuracy(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        for b in BENCHES + ("Mean",):
            for e in ENGINES:
                c, a = cov[b][e]
                assert c >= 0
                assert 0 <= a <= 1

    def test_traffic_ratios(self, cfg):
        bw = fig13_bandwidth_overhead(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES, engines=ENGINES
        )
        for e in ENGINES:
            req, dram = bw["Mean"][e]
            assert req >= 0.9  # prefetching never removes demand traffic
            assert dram > 0


class TestFig14_15:
    def test_early_ratio_keys(self, cfg):
        data = fig14a_early_prefetch_ratio(
            scale=Scale.TINY, config=cfg, benchmarks=BENCHES
        )
        assert set(data) == {"intra", "inter", "mta", "caps",
                             "caps_no_wakeup"}
        # None: that engine issued no prefetch on these two benchmarks.
        assert all(v is None or 0 <= v <= 1 for v in data.values())

    def test_distance_keys(self, cfg):
        data = fig14b_prefetch_distance(
            scale=Scale.TINY, config=cfg, benchmarks=("SCN",)
        )
        assert set(data) == {"LRR", "TLV", "PA-TLV"}
        assert all(v is None or v >= 0 for v in data.values())

    def test_energy_near_unity(self, cfg):
        data = fig15_energy(scale=Scale.TINY, config=cfg, benchmarks=BENCHES)
        assert set(data) == set(BENCHES) | {"Mean"}
        assert all(0.5 < v < 1.5 for v in data.values())


class TestStudies:
    def test_every_variant_has_speedups_and_a_baseline(self, cfg):
        benchmarks, studies = STUDIES["sensitivity"]
        data = fig_caps_variants("sensitivity", scale=Scale.TINY, config=cfg)
        assert tuple(data) == studies
        assert list(data["dram"]) == [1, 2, 4]
        for variants in data.values():
            for v in variants.values():
                assert tuple(v["speedup"]) == benchmarks
                assert v["geomean"] > 0 and v["base_ipc"] > 0
